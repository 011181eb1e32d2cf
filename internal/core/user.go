package core

import "fmt"

// User is the query party: it holds the authorized key material and
// encrypts queries. Per property P3, this is the user's entire computational
// role — O(d²) work per query, no participation in the search itself.
//
// A User is safe for concurrent Query calls: the SAP and DCE keys each draw
// a token's randomness from their own stream under their own lock, and
// nothing else in Query is shared. Which call gets which draws then depends
// on the schedule, so only a user that queries from one goroutine gets the
// same tokens from the same seed. Tokens are immutable and can be shared
// freely; the serving side is fully concurrent.
type User struct {
	key *UserKey
}

// NewUser creates a user from the owner-authorized key.
func NewUser(key *UserKey) (*User, error) {
	if key == nil || key.DCE == nil || key.SAP == nil {
		return nil, fmt.Errorf("core: incomplete user key")
	}
	if key.DCE.Dim() != key.SAP.Dim() {
		return nil, fmt.Errorf("core: key dimension mismatch %d vs %d", key.DCE.Dim(), key.SAP.Dim())
	}
	return &User{key: key}, nil
}

// Dim returns the query dimension.
func (u *User) Dim() int { return u.key.DCE.Dim() }

// Query encrypts a plaintext query into the token sent to the server:
// C_SAP(q) for the filter phase and T_q for the refine phase.
func (u *User) Query(q []float64) (*QueryToken, error) {
	if len(q) != u.Dim() {
		return nil, fmt.Errorf("core: query has dim %d, want %d", len(q), u.Dim())
	}
	if err := finite(q); err != nil {
		return nil, fmt.Errorf("core: query: %w", err)
	}
	return &QueryToken{
		SAP:      u.key.SAP.Encrypt(q),
		Trapdoor: u.key.DCE.TrapGen(q),
	}, nil
}
