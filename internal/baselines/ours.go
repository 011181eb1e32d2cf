package baselines

import (
	"fmt"
	"time"

	"ppanns/internal/core"
)

// Ours wraps the paper's PP-ANNS scheme behind the System interface so the
// harness measures it with the same cost accounting as the baselines.
type Ours struct {
	user   *core.User
	server *core.Server
	opt    core.SearchOptions
	dim    int
}

// newOurs builds the wrapper from an existing deployment.
func newOurs(user *core.User, server *core.Server, opt core.SearchOptions) (*Ours, error) {
	if user == nil || server == nil {
		return nil, fmt.Errorf("baselines: nil user or server")
	}
	return &Ours{user: user, server: server, opt: opt, dim: user.Dim()}, nil
}

// NewOursFromData builds a fresh deployment over data with the given
// parameters and search options.
func NewOursFromData(data [][]float64, params core.Params, opt core.SearchOptions) (*Ours, error) {
	owner, err := core.NewDataOwner(params)
	if err != nil {
		return nil, err
	}
	edb, err := owner.EncryptDatabase(data)
	if err != nil {
		return nil, err
	}
	server, err := core.NewServer(edb)
	if err != nil {
		return nil, err
	}
	user, err := core.NewUser(owner.UserKey())
	if err != nil {
		return nil, err
	}
	return newOurs(user, server, opt)
}

// Name implements System.
func (o *Ours) Name() string { return "PP-ANNS" }

// Search implements System. User time is token generation; server time is
// the whole filter-and-refine search; the single round ships the token up
// and k ids down — the paper's minimal-interaction property.
func (o *Ours) Search(q []float64, k int) ([]int, Costs, error) {
	var c Costs
	c.Rounds = 1

	start := time.Now()
	tok, err := o.user.Query(q)
	if err != nil {
		return nil, c, err
	}
	c.UserTime = time.Since(start)
	// Upload: C_SAP (d float64s) + trapdoor (2d+16 float64s) + k.
	c.UploadBytes = int64(8*len(tok.SAP) + 8*len(tok.Trapdoor.Q) + 4)

	start = time.Now()
	ids, st, err := o.server.SearchInto(nil, tok, k, o.opt)
	if err != nil {
		return nil, c, err
	}
	c.ServerTime = time.Since(start)
	c.DownloadBytes = int64(4 * len(ids))
	c.Candidates = st.Candidates
	return ids, c, nil
}
