package shard

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ppanns/internal/core"
	"ppanns/internal/rng"
	"ppanns/internal/transport"
)

// ErrInjected is the sentinel every Faulty-injected failure wraps, so
// tests can tell an injected fault from a real one with errors.Is.
var ErrInjected = errors.New("shard: injected fault")

// FaultSpec describes the fault mix injected into one operation. Rates are
// probabilities in [0, 1] drawn per call from the wrapper's seeded RNG.
// The zero value injects nothing.
type FaultSpec struct {
	// ErrRate is the probability a call fails with ErrInjected.
	ErrRate float64
	// SlowRate is the probability a call stalls for Slow before serving —
	// the straggler replica hedged reads exist to beat.
	SlowRate float64
	Slow     time.Duration
	// Delay is added to every call unconditionally.
	Delay time.Duration
}

// Faulty wraps a Shard with deterministic fault injection: per-op error
// and latency specs drawn from a seeded RNG, plus a kill switch that
// fails every call until Revive. It is the application-level half of the
// fault harness (transport.Chaos breaks the wire itself) and drives the
// failover, hedging, partial-result and chaos tests.
type Faulty struct {
	inner Shard

	mu    sync.Mutex
	rng   *rng.Rand
	specs map[string]FaultSpec
	dead  bool
}

// Faulty must remain usable anywhere a Shard is, including as a replica.
var _ Shard = (*Faulty)(nil)

// NewFaulty wraps inner with fault injection seeded by seed. With no specs
// Set and no Kill, it is transparent.
func NewFaulty(inner Shard, seed uint64) *Faulty {
	return &Faulty{inner: inner, rng: rng.NewSeeded(seed), specs: make(map[string]FaultSpec)}
}

// Set installs the fault spec for one op ("search", "insert", "delete",
// "info") or for every op ("*"; an op-specific spec wins over it).
func (f *Faulty) Set(op string, spec FaultSpec) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.specs[op] = spec
}

// Kill makes every call fail with ErrInjected until Revive — a crashed
// replica, as seen from above the wire.
func (f *Faulty) Kill() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dead = true
}

// Revive undoes Kill.
func (f *Faulty) Revive() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dead = false
}

// gate rolls the dice for one call: it sleeps any injected latency
// (abandoning the stall early if cancel fires) and returns the injected
// error, if any. The RNG draw happens under the lock, the sleeping never
// does.
func (f *Faulty) gate(op string, cancel <-chan struct{}) error {
	f.mu.Lock()
	if f.dead {
		f.mu.Unlock()
		return fmt.Errorf("%w: replica killed", ErrInjected)
	}
	spec, ok := f.specs[op]
	if !ok {
		spec = f.specs["*"]
	}
	fail, slow := false, false
	if spec.ErrRate > 0 {
		fail = f.rng.Float64() < spec.ErrRate
	}
	if spec.SlowRate > 0 {
		slow = f.rng.Float64() < spec.SlowRate
	}
	f.mu.Unlock()
	if spec.Delay > 0 && !sleepOrCancel(spec.Delay, cancel) {
		return transport.ErrAbandoned
	}
	if slow && !sleepOrCancel(spec.Slow, cancel) {
		return transport.ErrAbandoned
	}
	if fail {
		return fmt.Errorf("%w: %s", ErrInjected, op)
	}
	return nil
}

// sleepOrCancel sleeps for d, returning false early if cancel fires — so
// an injected stall on a hedged-read loser releases its goroutine as soon
// as the winner lands, like a real abandoned call would.
func sleepOrCancel(d time.Duration, cancel <-chan struct{}) bool {
	if cancel == nil {
		time.Sleep(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-cancel:
		return false
	}
}

func (f *Faulty) SearchShardCancel(cancel <-chan struct{}, tok *core.QueryToken, k int, opt core.SearchOptions) (core.ShardResult, error) {
	if err := f.gate("search", cancel); err != nil {
		return core.ShardResult{}, err
	}
	return f.inner.SearchShardCancel(cancel, tok, k, opt)
}

func (f *Faulty) Insert(p *core.InsertPayload) (int, error) {
	if err := f.gate("insert", nil); err != nil {
		return 0, err
	}
	return f.inner.Insert(p)
}

func (f *Faulty) Delete(local int) error {
	if err := f.gate("delete", nil); err != nil {
		return err
	}
	return f.inner.Delete(local)
}

func (f *Faulty) Info() (transport.Info, error) {
	if err := f.gate("info", nil); err != nil {
		return transport.Info{}, err
	}
	return f.inner.Info()
}
