package bench_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/rt"
)

// TestSchedCountsPinned pins the event loop's work counts for the three
// kernels whose threads interleave every couple of simulated cycles. The
// counts depend only on the simulated program, so any drift means the
// scheduler took different decisions — or the program changed.
func TestSchedCountsPinned(t *testing.T) {
	want := map[string]machine.SchedCounts{
		"bisort":    {Syncs: 945758, Handoffs: 887332},
		"voronoi":   {Syncs: 755019, Handoffs: 708022},
		"perimeter": {Syncs: 91579, Handoffs: 91169},
	}
	for _, name := range []string{"bisort", "voronoi", "perimeter"} {
		info, ok := bench.Get(name)
		if !ok {
			t.Fatalf("benchmark %q not registered", name)
		}
		var rtm *rt.Runtime
		res := info.Run(bench.Config{
			Procs: 4, Scale: batteryScale, Scheme: coherence.LocalKnowledge,
			Sched:       machine.SchedEventLoop,
			RuntimeHook: func(r *rt.Runtime) { rtm = r },
		})
		if !res.Verified() {
			t.Fatalf("%s: check %#x != %#x", name, res.Check, res.WantCheck)
		}
		got, ok := rtm.SchedCounts()
		if !ok {
			t.Fatalf("%s: event loop reported no counts", name)
		}
		if got != want[name] {
			t.Errorf("%s: counts = %+v; want %+v", name, got, want[name])
		}
	}
}
