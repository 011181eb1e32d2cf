// Package epochset provides the epoch-stamped visited-id set every graph
// and hash search shares. Instead of clearing a boolean table between
// searches (O(n) per query), each round stamps visited ids with the
// current epoch and a lookup compares stamps; clearing happens only when
// the uint32 epoch wraps, so a stale stamp can never alias a fresh round.
// The subtle wrap-around invariant lives here once instead of being
// copy-pasted into every search context.
package epochset

import "slices"

// Set is a reusable visited-id set over dense non-negative ids. The zero
// value is ready for use after Grow.
type Set struct {
	tags  []uint32
	epoch uint32
}

// Grow ensures ids 0..n-1 are addressable, with slack so steady growth
// does not reallocate per call. A reallocation resets all stamps (the
// fresh table is all-zero, which no live epoch equals after Next).
func (s *Set) Grow(n int) {
	if len(s.tags) < n {
		s.tags = make([]uint32, n+n/2+16)
		s.epoch = 0
	}
}

// Next starts a fresh visit round. On epoch wrap the table is cleared so
// stamps from 2³²−1 rounds ago cannot alias the new epoch.
func (s *Set) Next() {
	s.epoch++
	if s.epoch == 0 {
		for i := range s.tags {
			s.tags[i] = 0
		}
		s.epoch = 1
	}
}

// Seen reports whether id was already visited this round, marking it
// visited either way.
func (s *Set) Seen(id int) bool {
	if s.tags[id] == s.epoch {
		return true
	}
	s.tags[id] = s.epoch
	return false
}

// Unseen appends to dst, in order, each id of ids not yet visited this
// round, and marks every id visited: Seen over a neighbor list, so an id
// listed twice is appended once. It writes every id and advances past the
// fresh ones by a 0/1 of the stamp compare, so the gather takes no branch
// that depends on which ids were seen.
func (s *Set) Unseen(dst, ids []int32) []int32 {
	n := len(dst)
	dst = slices.Grow(dst, len(ids))[:n+len(ids)]
	tags, epoch := s.tags, s.epoch
	for _, id := range ids {
		fresh := 0
		if tags[id] != epoch {
			fresh = 1
		}
		tags[id] = epoch
		dst[n] = id
		n += fresh
	}
	return dst[:n]
}
