package ppanns

import (
	"io"

	"ppanns/internal/core"
)

// Deployment wires the three roles together in one process — the shape the
// quickstart example and most tests want. Production deployments split the
// roles across machines (see examples/clientserver and internal/transport).
type Deployment struct {
	Owner  *DataOwner
	User   *User
	Server *Server
}

// NewDeployment creates keys, encrypts vectors, builds the index and
// returns a ready-to-query in-process deployment.
func NewDeployment(p Params, vectors [][]float64) (*Deployment, error) {
	owner, err := NewDataOwner(p)
	if err != nil {
		return nil, err
	}
	edb, err := owner.EncryptDatabase(vectors)
	if err != nil {
		return nil, err
	}
	server, err := core.NewServer(edb)
	if err != nil {
		return nil, err
	}
	user, err := NewUser(owner.UserKey())
	if err != nil {
		return nil, err
	}
	return &Deployment{Owner: owner, User: user, Server: server}, nil
}

// Search encrypts q and runs a k-ANNS query end to end, returning the ids
// of the approximate nearest neighbors, closest first.
func (d *Deployment) Search(q []float64, k int, opt SearchOptions) ([]int, error) {
	tok, err := d.User.Query(q)
	if err != nil {
		return nil, err
	}
	return d.Server.Search(tok, k, opt)
}

// Insert encrypts v and inserts it, returning the new id.
func (d *Deployment) Insert(v []float64) (int, error) {
	payload, err := d.Owner.EncryptVector(v)
	if err != nil {
		return 0, err
	}
	return d.Server.Insert(payload)
}

// Delete removes id from the server-side index.
func (d *Deployment) Delete(id int) error { return d.Server.Delete(id) }

// SaveUserKey writes the user's key material (for shipping to an
// authorized user over a secure channel).
func SaveUserKey(w io.Writer, k *UserKey) error { return core.SaveUserKey(w, k) }

// LoadUserKey reads key material written by SaveUserKey.
func LoadUserKey(r io.Reader) (*UserKey, error) { return core.LoadUserKey(r) }

// LoadEncryptedDatabase reads a database written by
// (*EncryptedDatabase).Save.
func LoadEncryptedDatabase(r io.Reader) (*EncryptedDatabase, error) {
	return core.LoadEncryptedDatabase(r)
}
