package main

import (
	"fmt"
	"path/filepath"

	"repro/internal/bench"
	"repro/internal/bench/record"
	"repro/internal/coherence"
	"repro/internal/machine"

	_ "repro/internal/bench/barneshut"
	_ "repro/internal/bench/bisort"
	_ "repro/internal/bench/em3d"
	_ "repro/internal/bench/health"
	_ "repro/internal/bench/mst"
	_ "repro/internal/bench/perimeter"
	_ "repro/internal/bench/power"
	_ "repro/internal/bench/treeadd"
	_ "repro/internal/bench/tsp"
	_ "repro/internal/bench/voronoi"
)

// pinnedScale is the problem scale of the BENCH_<name>.json records.
const pinnedScale = bench.DefaultScale

// ref is the expected answer of one configuration.
type ref struct {
	cycles int64
	stats  machine.StatsSnapshot
	digest string
}

// config is one heuristic-mode run configuration.
type config struct {
	bench  string
	procs  int
	scale  int
	scheme coherence.Kind
}

func (c config) String() string {
	return fmt.Sprintf("%s/P=%d/scale=%d/%s", c.bench, c.procs, c.scale, c.scheme)
}

func (c config) benchConfig() bench.Config {
	return bench.Config{Procs: c.procs, Scale: c.scale, Scheme: c.scheme}
}

// loadRef returns the expected answer for c: its pinned record when c is
// at the pinned scale and machine size, otherwise the answer of a direct
// recorded run (how the tests' tiny-scale runs get their references).
// The pins are only read, never written.
func loadRef(root string, c config) (ref, error) {
	info, ok := bench.Get(c.bench)
	if !ok {
		return ref{}, fmt.Errorf("unknown benchmark %q", c.bench)
	}
	if c.scale == pinnedScale && c.procs == bench.CatalogDefaultProcs {
		f, err := record.Load(filepath.Join(root, record.Filename(c.bench)))
		if err != nil {
			return ref{}, err
		}
		rec, ok := f.Lookup(record.HeuristicKey(c.procs, c.scheme.String()))
		if !ok || rec.Scale != c.scale || !rec.Verified || rec.TraceDigest == "" {
			return ref{}, fmt.Errorf("%s: no verified pin with a trace digest", c)
		}
		return ref{cycles: rec.Cycles, stats: rec.Stats, digest: rec.TraceDigest}, nil
	}
	res, rec := bench.RunRecorded(info, c.benchConfig())
	if !res.Verified() {
		return ref{}, fmt.Errorf("%s: reference run failed verification", c)
	}
	return ref{cycles: rec.Cycles, stats: rec.Stats, digest: rec.TraceDigest}, nil
}

// loadRefs loads the expected answer of every configuration.
func loadRefs(root string, cs []config) (map[config]ref, error) {
	refs := make(map[config]ref, len(cs))
	for _, c := range cs {
		r, err := loadRef(root, c)
		if err != nil {
			return nil, err
		}
		refs[c] = r
	}
	return refs, nil
}
