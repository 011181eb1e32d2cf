package shard

import (
	"sync"
	"time"
)

// BreakerState is the lifecycle position of one replica's circuit breaker.
type BreakerState int

const (
	// BreakerClosed: the replica is healthy; requests flow normally.
	BreakerClosed BreakerState = iota
	// breakerOpen: the replica crossed the consecutive-failure threshold;
	// requests are diverted to siblings until the backoff expires.
	breakerOpen
	// breakerHalfOpen: the backoff expired and a single probe request is
	// allowed through; its outcome closes or re-opens the breaker.
	breakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// The breaker's tuning, as the package doc states it. A success resets the
// failure count, so only a replica that fails every request trips.
const (
	breakerThreshold  = 3
	breakerBackoff    = 50 * time.Millisecond
	breakerMaxBackoff = 5 * time.Second
)

// breakerTuning is the constants above as a value, which tests lower.
type breakerTuning struct {
	threshold           int
	backoff, maxBackoff time.Duration
}

// breaker is one replica's health tracker: a consecutive-failure circuit
// breaker with exponential-backoff re-probing. It only diverts traffic —
// the replica set may still force a request through a fully-open stripe
// rather than refuse to try at all, and the breaker simply records the
// outcome.
type breaker struct {
	tune breakerTuning

	mu      sync.Mutex
	state   BreakerState
	fails   int           // consecutive failures while closed
	backoff time.Duration // current open duration (doubles per re-trip)
	retryAt time.Time     // when an open breaker half-opens
	probing bool          // a half-open probe is in flight
}

// allow reports whether a request may be sent to this replica now. An open
// breaker past its backoff admits exactly one probe (half-open); further
// requests are refused until the probe resolves.
func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		if now.Before(b.retryAt) {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	case breakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return true
}

// success records a request the replica answered: the breaker closes and
// every counter resets, whatever state it was in.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.fails = 0
	b.backoff = 0
	b.probing = false
}

// failure records a request the replica failed. A failed half-open probe
// re-trips with doubled backoff; while closed, the consecutive-failure
// count trips at the threshold; while open, stragglers from attempts
// admitted earlier change nothing.
func (b *breaker) failure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.probing = false
		b.trip(now)
	case BreakerClosed:
		b.fails++
		if b.fails >= b.tune.threshold {
			b.trip(now)
		}
	}
}

// trip opens the breaker, doubling the backoff up to the cap. Caller holds
// b.mu.
func (b *breaker) trip(now time.Time) {
	if b.backoff == 0 {
		b.backoff = b.tune.backoff
	} else {
		b.backoff *= 2
		if b.backoff > b.tune.maxBackoff {
			b.backoff = b.tune.maxBackoff
		}
	}
	b.state = breakerOpen
	b.retryAt = now.Add(b.backoff)
}

// snapshot returns the current state and consecutive-failure count.
func (b *breaker) snapshot() (BreakerState, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.fails
}
