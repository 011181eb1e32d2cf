package epochset

import (
	"slices"
	"testing"
)

func TestSeenPerRound(t *testing.T) {
	var s Set
	s.Grow(8)
	s.Next()
	if s.Seen(3) {
		t.Fatal("fresh id reported seen")
	}
	if !s.Seen(3) {
		t.Fatal("repeat id not reported seen")
	}
	s.Next()
	if s.Seen(3) {
		t.Fatal("stamp leaked across rounds")
	}
}

func TestGrowPreservesCorrectness(t *testing.T) {
	var s Set
	s.Grow(4)
	s.Next()
	s.Seen(2)
	s.Grow(100) // reallocates; all stamps reset, epoch restarts
	s.Next()
	if s.Seen(2) || s.Seen(99) {
		t.Fatal("grown set reported unvisited ids as seen")
	}
	if !s.Seen(99) {
		t.Fatal("grown set lost a fresh stamp")
	}
}

func TestEpochWrapClearsTable(t *testing.T) {
	var s Set
	s.Grow(4)
	s.Next()
	s.Seen(1)
	s.epoch = ^uint32(0) // force the wrap on the next round
	s.tags[2] = ^uint32(0)
	s.Next()
	if s.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", s.epoch)
	}
	if s.Seen(2) {
		t.Fatal("stale max-epoch stamp aliased the fresh epoch")
	}
}

// TestUnseenMatchesSeen: Unseen appends what a Seen loop over the same ids
// would gather, in order, behind what dst already holds, and leaves the
// same ids marked.
func TestUnseenMatchesSeen(t *testing.T) {
	var a, b Set
	a.Grow(16)
	b.Grow(16)
	rounds := [][]int32{{3, 5, 3, 0, 15}, {5, 7, 7, 2, 5}, {}, {1, 2, 3, 4, 5, 6, 7, 8}}
	dst := []int32{99}
	for i, ids := range rounds {
		a.Next()
		b.Next()
		want := []int32{99}
		for _, id := range ids {
			if !b.Seen(int(id)) {
				want = append(want, id)
			}
		}
		dst = a.Unseen(dst[:1], ids)
		if !slices.Equal(dst, want) {
			t.Fatalf("round %d: Unseen gathered %v, a Seen loop %v", i, dst, want)
		}
		for id := range 16 {
			if a.Seen(id) != b.Seen(id) {
				t.Fatalf("round %d: id %d marked differently", i, id)
			}
		}
	}
}
