package core

import (
	"fmt"
	"sync"

	"ppanns/internal/rng"
)

// User is the query party: it holds the authorized key material and
// encrypts queries. Per property P3, this is the user's entire computational
// role — O(d²) work per query, no participation in the search itself.
//
// Every User draws its tokens' randomness from a stream of its own, forked
// from the key once, when NewUser makes it. So the tokens a User emits
// depend on the key's seed, on how many Users the key made before it and
// on the order of its own Query calls, never on what other Users of the
// key do or when. A User is safe for concurrent Query calls: each call
// takes a stream of its own from the User's under a lock held for two
// draws, so which call gets which stream then depends on the schedule.
// Tokens are immutable and can be shared freely; the serving side is fully
// concurrent.
type User struct {
	key *UserKey
	mu  sync.Mutex
	rnd *rng.Rand
}

// NewUser creates a user from the owner-authorized key.
func NewUser(key *UserKey) (*User, error) {
	if key == nil || key.DCE == nil || key.SAP == nil {
		return nil, fmt.Errorf("core: incomplete user key")
	}
	if key.DCE.Dim() != key.SAP.Dim() {
		return nil, fmt.Errorf("core: key dimension mismatch %d vs %d", key.DCE.Dim(), key.SAP.Dim())
	}
	return &User{key: key, rnd: key.DCE.Fork()}, nil
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
	u.mu.Lock()
	r := rng.Derive(u.rnd, 0x70c)
	u.mu.Unlock()
	return &QueryToken{
		SAP:      u.key.SAP.EncryptWith(nil, r, q),
		Trapdoor: u.key.DCE.TrapGenWith(r, q),
	}, nil
}
