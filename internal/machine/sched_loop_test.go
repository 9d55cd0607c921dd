package machine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// checkLoopHeap asserts the heap property and that every entry's index
// field names its own slot.
func checkLoopHeap(t *testing.T, h loopHeap) {
	t.Helper()
	for i, e := range h {
		if e.index != i {
			t.Fatalf("slot %d holds entry with index %d", i, e.index)
		}
		if i > 0 && e.less(h[(i-1)/2]) {
			t.Fatalf("slot %d (clock %d) is less than its parent", i, e.clock)
		}
	}
}

// TestLoopHeapRandomized drives loopHeap with seeded mixes of push,
// remove(i) and replaceRoot against a sorted reference slice: every pop
// must come out in (clock, seq) order and every index must match its slot.
func TestLoopHeapRandomized(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h loopHeap
		var ref []*SchedEntry // sorted by less
		var seq uint64
		newEntry := func() *SchedEntry {
			// A narrow clock range forces ties, so seq decides often.
			e := &SchedEntry{clock: rng.Int63n(32), seq: seq, index: -1}
			seq++
			return e
		}
		insertRef := func(e *SchedEntry) {
			i, _ := slices.BinarySearchFunc(ref, e, func(a, b *SchedEntry) int {
				if a.less(b) {
					return -1
				}
				return 1
			})
			ref = slices.Insert(ref, i, e)
		}
		deleteRef := func(e *SchedEntry) {
			i := slices.Index(ref, e)
			if i < 0 {
				t.Fatalf("seed %d: removed entry not in reference", seed)
			}
			ref = slices.Delete(ref, i, i+1)
		}
		for op := 0; op < 2000; op++ {
			switch r := rng.Intn(10); {
			case r < 4 || len(h) == 0:
				e := newEntry()
				h.push(e)
				insertRef(e)
			case r < 7:
				i := rng.Intn(len(h))
				e := h[i]
				if got := h.remove(i); got != e || got.index != -1 {
					t.Fatalf("seed %d: remove(%d) returned %p (index %d), want %p off-heap", seed, i, got, got.index, e)
				}
				deleteRef(e)
			default:
				// The handoff's precondition: the newcomer is not less
				// than the root, so the displaced root is the minimum.
				e := newEntry()
				e.clock = h[0].clock + rng.Int63n(4)
				m := h.replaceRoot(e)
				if m != ref[0] || m.index != -1 {
					t.Fatalf("seed %d: replaceRoot displaced clock %d seq %d, want the minimum clock %d seq %d",
						seed, m.clock, m.seq, ref[0].clock, ref[0].seq)
				}
				ref = ref[1:]
				insertRef(e)
			}
			checkLoopHeap(t, h)
			if len(h) != len(ref) {
				t.Fatalf("seed %d: heap holds %d entries, reference %d", seed, len(h), len(ref))
			}
		}
		for len(h) > 0 {
			if got := h.remove(0); got != ref[0] {
				t.Fatalf("seed %d: popped clock %d seq %d, want clock %d seq %d",
					seed, got.clock, got.seq, ref[0].clock, ref[0].seq)
			}
			ref = ref[1:]
			checkLoopHeap(t, h)
		}
	}
}

// leapfrog runs k event-loop threads whose clocks interleave so that every
// Sync hands off, until n handoffs have happened, and returns the
// scheduler. When probe is non-nil, thread 0 calls it once all threads are
// running and the others keep leapfrogging until it returns; probe gets a
// step that hands off once and runs every other thread's turn.
func leapfrog(k int, n int64, probe func(step func())) *LoopScheduler {
	s := NewLoopScheduler()
	probing := probe != nil
	entries := make([]*SchedEntry, k)
	for i := range entries {
		entries[i] = s.Register(int64(i))
	}
	body := func(i int) func() {
		return func() {
			e := entries[i]
			clock := int64(i)
			step := func() {
				clock += int64(k)
				s.Sync(e, clock)
			}
			if i == 0 && probing {
				step() // let every other thread start
				probe(step)
				probing = false
			}
			for probing || s.handoffs < n {
				step()
			}
			s.Exit(e)
		}
	}
	for i := 1; i < k; i++ {
		s.Go(entries[i], body(i))
	}
	s.Main(entries[0], body(0))
	return s
}

// TestLoopHandoffZeroAllocs pins the handoff path at zero allocations:
// one Sync that yields, the other threads' turns, and the resume back.
func TestLoopHandoffZeroAllocs(t *testing.T) {
	for _, k := range []int{2, 16} {
		var allocs float64
		s := leapfrog(k, 0, func(step func()) {
			allocs = testing.AllocsPerRun(200, step)
		})
		if allocs != 0 {
			t.Errorf("k=%d: %v allocations per handoff round; want 0", k, allocs)
		}
		if c := s.Counts(); c.Handoffs != c.Syncs {
			t.Errorf("k=%d: %d of %d syncs handed off; leapfrogging threads must always hand off", k, c.Handoffs, c.Syncs)
		}
	}
}

// BenchmarkLoopHandoff measures the scheduler's handoff in isolation: k
// threads leapfrog in virtual time so that every Sync hands off. The
// kernels that hand off most keep about 14 entries runnable (bisort,
// voronoi) and up to 216 (perimeter).
func BenchmarkLoopHandoff(b *testing.B) {
	for _, k := range []int{2, 16, 128} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			s := leapfrog(k, int64(b.N), nil)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(s.Counts().Handoffs), "ns/handoff")
		})
	}
}
