package rt

import (
	"testing"

	"repro/internal/trace"
)

// The per-access hot paths must not allocate: a simulated kernel performs
// millions of dereferences, and PR 8's wall-clock profile showed the
// heap-escaping cacheRef and the line-fetch buffer accounting for two
// thirds of all objects allocated. These tests pin the zero-alloc claims
// with testing.AllocsPerRun, run from inside the simulation thread so the
// measurements cover the scheduler fast path too.

// TestCacheHitPathZeroAlloc pins the resident-line cache hit with tracing
// disabled: locality test, scheduler sync, cache lookup and the word read
// — zero allocations per access.
func TestCacheHitPathZeroAlloc(t *testing.T) {
	r := New(Config{Procs: 2})
	g := r.M.Procs[1].Heap.Alloc(64)
	site := &Site{Name: "allocs.hit", Mech: Cache}
	r.Run(0, func(th *Thread) {
		th.LoadWord(site, g, 0) // fault the line in
		if avg := testing.AllocsPerRun(200, func() {
			th.LoadWord(site, g, 0)
		}); avg != 0 {
			t.Errorf("cache-hit load allocates %.1f objects per access; want 0", avg)
		}
		if avg := testing.AllocsPerRun(200, func() {
			th.StoreWord(site, g, 8, 42)
		}); avg != 0 {
			t.Errorf("cache-hit store allocates %.1f objects per access; want 0", avg)
		}
	})
}

// TestTracedCacheHitZeroAlloc pins the same path with tracing ENABLED:
// the warm-up access allocates the ring's first chunk, after which
// emitting a hit event costs no allocation (wrapping does not allocate
// either).
func TestTracedCacheHitZeroAlloc(t *testing.T) {
	rec := trace.New(1 << 12)
	r := New(Config{Procs: 2, Trace: rec})
	g := r.M.Procs[1].Heap.Alloc(64)
	site := &Site{Name: "allocs.tracedhit", Mech: Cache}
	r.Run(0, func(th *Thread) {
		th.LoadWord(site, g, 0)
		if avg := testing.AllocsPerRun(200, func() {
			th.LoadWord(site, g, 0)
		}); avg != 0 {
			t.Errorf("traced cache-hit load allocates %.1f objects per access; want 0", avg)
		}
	})
}

// TestWorkZeroAlloc pins the plain compute path: chunked Work charges and
// their scheduler syncs allocate nothing.
func TestWorkZeroAlloc(t *testing.T) {
	r := New(Config{Procs: 2})
	r.Run(0, func(th *Thread) {
		if avg := testing.AllocsPerRun(200, func() {
			th.Work(1024)
		}); avg != 0 {
			t.Errorf("Work allocates %.1f objects per charge; want 0", avg)
		}
	})
}

// TestLocalDerefZeroAlloc pins the local-reference path (pointer test
// passes, no mechanism engaged) — the single hottest operation in every
// kernel.
func TestLocalDerefZeroAlloc(t *testing.T) {
	r := New(Config{Procs: 2})
	g := r.M.Procs[0].Heap.Alloc(64)
	site := &Site{Name: "allocs.local", Mech: Cache}
	r.Run(0, func(th *Thread) {
		th.LoadWord(site, g, 0)
		if avg := testing.AllocsPerRun(200, func() {
			th.LoadWord(site, g, 0)
		}); avg != 0 {
			t.Errorf("local load allocates %.1f objects per access; want 0", avg)
		}
	})
}
