package mem_test

import (
	"testing"

	"repro/internal/gaddr"
	"repro/internal/machine"
	"repro/internal/mem"
)

// TestConcurrentAlloc allocates from eight logical threads the way the
// runtime does: each worker is a scheduler thread that Syncs before every
// Alloc, so allocations interleave in virtual time on the serialized
// control flow the lock-free Heap relies on. Every address must be
// distinct.
func TestConcurrentAlloc(t *testing.T) {
	h := mem.NewHeap(0, 1<<22)
	const workers, per = 8, 200
	s := machine.NewLoopScheduler()
	got := make([][]gaddr.GP, workers)
	entries := make([]*machine.SchedEntry, workers)
	for w := range entries {
		entries[w] = s.Register(0)
	}
	body := func(w int) func() {
		return func() {
			e := entries[w]
			for i := 0; i < per; i++ {
				// Staggered strides interleave the workers unevenly.
				s.Sync(e, int64(i*(w+1)))
				got[w] = append(got[w], h.Alloc(24))
			}
			s.Exit(e)
		}
	}
	for w := 1; w < workers; w++ {
		s.Go(entries[w], body(w))
	}
	s.Main(entries[0], body(0))
	seen := map[gaddr.GP]bool{}
	for _, list := range got {
		if len(list) != per {
			t.Fatalf("worker allocated %d objects; want %d", len(list), per)
		}
		for _, g := range list {
			if seen[g] {
				t.Fatalf("duplicate allocation %v", g)
			}
			seen[g] = true
		}
	}
}
