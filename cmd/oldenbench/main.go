// Command oldenbench regenerates the paper's experiments end-to-end:
//
//	oldenbench -table 1            # benchmark descriptions
//	oldenbench -table 2            # speedups + migrate-only comparison
//	oldenbench -table 3            # caching statistics per coherence scheme
//	oldenbench -figure 2           # list-distribution crossover
//
// Problem sizes default to 1/16 of the paper's (Table 1) sizes; pass
// -scale 1 for the full sizes. -procs selects the machine sizes for
// Table 2 and -maxprocs the machine size for Table 3 / Figure 2.
//
// Beyond the paper's aggregates, one benchmark run can be traced on the
// simulation clock and profiled per site and per page:
//
//	oldenbench -bench treeadd -maxprocs 4 -trace out.json -profile
//
// The trace file is Chrome trace_event JSON (chrome://tracing, Perfetto);
// -profile prints miss-latency histograms, migration fan-out and
// invalidation traffic; the printed digest is the byte-stable artifact
// the regression tests pin.
//
// Persistent records and the perf gate:
//
//	oldenbench -update -maxprocs 4             # re-pin BENCH_<name>.json in .
//	oldenbench -record out/ -maxprocs 4        # same suite, elsewhere
//	oldenbench -table 2 -json                  # stream RunRecord JSON to stdout
//
// -json moves the human tables to stderr and emits one JSON object per
// benchmark run on stdout; cmd/oldenreport renders and gates the pinned
// files.
//
// Simulator throughput (wall clock, host-dependent — never pinned):
//
//	oldenbench -wallclock WALLCLOCK.json -maxprocs 4   # ns/sim-cycle
//
// times every benchmark × coherence scheme (best of -wallcount runs) and
// writes a WallFile; `oldenreport -wallclock` renders it as the report's
// ns/sim-cycle section.
//
// -list prints the machine-readable benchmark catalog (names, coherence
// schemes, mechanism modes, default parameters) as JSON — byte-identical
// to oldend's GET /benchmarks, so clients of either can never drift.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/bench/record"
	"repro/internal/coherence"
	"repro/internal/rt"
	"repro/internal/trace"

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

func main() {
	table := flag.Int("table", 0, "regenerate a table (1, 2 or 3)")
	figure := flag.Int("figure", 0, "regenerate a figure (2)")
	curve := flag.String("curve", "", "print one benchmark's speedup curve (heuristic, migrate-only and cache-only)")
	scale := flag.Int("scale", bench.DefaultScale, "divide the paper's problem sizes by this factor (1 = full size)")
	procsFlag := flag.String("procs", "1,2,4,8,16,32", "machine sizes for Table 2")
	maxProcs := flag.Int("maxprocs", 32, "machine size for Table 3 and Figure 2")
	scheme := flag.String("scheme", "local", "coherence scheme for Table 2: local, global, bilateral")
	benchName := flag.String("bench", "", "trace/profile one benchmark at -maxprocs processors")
	traceOut := flag.String("trace", "", "with -bench: write Chrome trace JSON of the timed region to this file")
	profile := flag.Bool("profile", false, "with -bench: print per-site and per-page profiles")
	jsonOut := flag.Bool("json", false, "emit one RunRecord JSON object per benchmark run on stdout (human output moves to stderr)")
	recordDir := flag.String("record", "", "run the pinned record suite at -maxprocs/-scale and write BENCH_<name>.json files into this directory")
	wallclock := flag.String("wallclock", "", "measure wall-clock ns/simulated-cycle for every benchmark × scheme at -maxprocs/-scale and write the (non-pinned) WallFile JSON here")
	wallCount := flag.Int("wallcount", 3, "with -wallclock: timed repetitions per configuration (best-of wins)")
	update := flag.Bool("update", false, "shorthand for -record . : re-pin the committed BENCH_<name>.json baselines")
	list := flag.Bool("list", false, "print the machine-readable benchmark catalog (names, schemes, modes, default params) as JSON and exit")
	flag.Parse()

	if *list {
		b, err := bench.CatalogJSON()
		if err != nil {
			fatalf("catalog: %v", err)
		}
		os.Stdout.Write(b)
		return
	}

	out := io.Writer(os.Stdout)
	if *jsonOut {
		// Records own stdout; everything human-readable moves aside.
		out = os.Stderr
		enc := json.NewEncoder(os.Stdout)
		bench.SetRunObserver(func(r record.RunRecord) {
			if err := enc.Encode(r); err != nil {
				fatalf("encode record: %v", err)
			}
		})
	}

	var procs []int
	for _, f := range strings.Split(*procsFlag, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 || v > 64 {
			fatalf("bad -procs entry %q", f)
		}
		procs = append(procs, v)
	}
	kind, err := coherence.Parse(*scheme)
	if err != nil {
		fatalf("%v", err)
	}

	switch {
	case *wallclock != "":
		runWallclock(out, *wallclock, *benchName, *maxProcs, *scale, *wallCount)
	case *update || *recordDir != "":
		dir := *recordDir
		if *update {
			dir = "."
		}
		runRecordSuite(out, dir, *benchName, *maxProcs, *scale)
	case *table == 1:
		fmt.Fprint(out, bench.Table1())
	case *table == 2:
		s, err := bench.Table2(procs, *scale, kind)
		fmt.Fprint(out, s)
		if err != nil {
			fatalf("table 2: %v", err)
		}
	case *table == 3:
		s, err := bench.Table3(*maxProcs, *scale)
		fmt.Fprint(out, s)
		if err != nil {
			fatalf("table 3: %v", err)
		}
	case *figure == 2:
		fmt.Fprint(out, bench.Figure2(4096, *maxProcs))
	case *curve != "":
		s, err := bench.Curve(*curve, procs, *scale, kind)
		fmt.Fprint(out, s)
		if err != nil {
			fatalf("curve: %v", err)
		}
	case *benchName != "":
		runTraced(out, *benchName, *maxProcs, *scale, kind, *traceOut, *profile)
	default:
		fmt.Fprintln(os.Stderr, "nothing to do: pass -table 1|2|3, -figure 2, -curve <bench>, -bench <bench>, -record <dir> or -update")
		flag.Usage()
		os.Exit(2)
	}
}

// runRecordSuite collects the pinned configuration suite for every
// benchmark (or just `only`) and writes one BENCH_<name>.json per
// benchmark into dir.
func runRecordSuite(out io.Writer, dir, only string, procs, scale int) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("record dir: %v", err)
	}
	names := bench.Names()
	if only != "" {
		if _, ok := bench.Get(only); !ok {
			fatalf("unknown benchmark %q (want one of %s)", only, strings.Join(bench.Names(), ", "))
		}
		names = []string{only}
	}
	for _, name := range names {
		f, err := bench.CollectRecords(name, procs, scale)
		if err != nil {
			fatalf("record %s: %v", name, err)
		}
		if err := f.Save(dir); err != nil {
			fatalf("save %s: %v", name, err)
		}
		base, _ := f.Lookup("baseline")
		heur, _ := f.Lookup(record.HeuristicKey(procs, "local"))
		fmt.Fprintf(out, "%-12s pinned: baseline %d cycles, P=%d %d cycles (S=%.2f) -> %s\n",
			name, base.Cycles, procs, heur.Cycles,
			float64(base.Cycles)/float64(heur.Cycles),
			filepath.Join(dir, record.Filename(name)))
	}
}

// runWallclock times every benchmark (or just `only`) under every
// coherence scheme at P=procs and writes the measurements as a WallFile.
// Unlike the pinned records this artifact is host-dependent by nature:
// the simulated cycle counts inside it are deterministic, the wall times
// are not, so it is never committed and never gated — oldenreport's
// -wallclock flag renders it as the ns/sim-cycle section.
func runWallclock(out io.Writer, path, only string, procs, scale, count int) {
	if count < 1 {
		count = 1
	}
	names := bench.Names()
	if only != "" {
		if _, ok := bench.Get(only); !ok {
			fatalf("unknown benchmark %q (want one of %s)", only, strings.Join(bench.Names(), ", "))
		}
		names = []string{only}
	}
	var wf record.WallFile
	for _, name := range names {
		info, _ := bench.Get(name)
		for _, scheme := range coherence.Kinds() {
			var rtm *rt.Runtime
			cfg := bench.Config{Procs: procs, Scale: scale, Scheme: scheme,
				RuntimeHook: func(r *rt.Runtime) { rtm = r }}
			var cycles int64
			best := int64(-1)
			for i := 0; i < count; i++ {
				start := time.Now()
				res := info.Run(cfg)
				ns := time.Since(start).Nanoseconds()
				if !res.Verified() {
					fatalf("wallclock %s/%s: check %#x != %#x", name, scheme, res.Check, res.WantCheck)
				}
				cycles = res.Cycles
				if best < 0 || ns < best {
					best = ns
				}
			}
			rec := record.WallRecord{
				Benchmark: name, Procs: procs, Scheme: scheme.String(),
				Scale: scale, Runs: count, Cycles: cycles, WallNs: best,
			}
			if sc, ok := rtm.SchedCounts(); ok {
				rec.Syncs, rec.Handoffs = sc.Syncs, sc.Handoffs
			}
			fmt.Fprintf(out, "%-12s %-9s P=%d: %d cycles in %.2f ms — %.1f ns/sim-cycle, %.1f ns/handoff\n",
				name, scheme, procs, rec.Cycles, float64(rec.WallNs)/1e6, rec.NsPerCycle(), rec.NsPerHandoff())
			wf.Records = append(wf.Records, rec)
		}
	}
	if err := wf.SaveWall(path); err != nil {
		fatalf("save wallclock: %v", err)
	}
	fmt.Fprintf(out, "geomean %.1f ns/sim-cycle -> %s\n", wf.Geomean(), path)
}

// runTraced runs one benchmark with the event recorder attached and
// surfaces the trace: digest always, Chrome JSON and profiles on request.
func runTraced(out io.Writer, name string, procs, scale int, kind coherence.Kind, traceOut string, profile bool) {
	info, ok := bench.Get(name)
	if !ok {
		fatalf("unknown benchmark %q (want one of %s)", name, strings.Join(bench.Names(), ", "))
	}
	rec := trace.New(0)
	var rtm *rt.Runtime
	res := info.Run(bench.Config{
		Procs:       procs,
		Scale:       scale,
		Scheme:      kind,
		Trace:       rec,
		RuntimeHook: func(r *rt.Runtime) { rtm = r },
	})
	status := "verified"
	if !res.Verified() {
		status = fmt.Sprintf("FAILED (%#x != %#x)", res.Check, res.WantCheck)
	}
	fmt.Fprintf(out, "%s: procs=%d scale=1/%d scheme=%s — %s, %d cycles\n",
		name, procs, scale, kind, status, res.Cycles)
	fmt.Fprintf(out, "trace digest: %s\n", rec.Digest())
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fatalf("create trace file: %v", err)
		}
		if err := rec.WriteChrome(f); err != nil {
			fatalf("write trace: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("close trace file: %v", err)
		}
		fmt.Fprintf(out, "trace: %d events written to %s (load in chrome://tracing or ui.perfetto.dev)\n",
			rec.Len(), traceOut)
	}
	if profile {
		fmt.Fprintln(out)
		fmt.Fprint(out, rec.Profile().Format(20))
		if rtm != nil {
			fmt.Fprintln(out, "\nper-site mechanism counters (runtime view):")
			fmt.Fprintf(out, "%-28s %-8s %10s %10s %10s %10s\n",
				"site", "mech", "reads", "writes", "remote", "migrations")
			for _, s := range rtm.SiteStats() {
				fmt.Fprintf(out, "%-28s %-8s %10d %10d %10d %10d\n",
					s.Name, s.Mech, s.Reads, s.Writes, s.Remote, s.Migrations)
			}
		}
	}
	if !res.Verified() {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "oldenbench: "+format+"\n", args...)
	os.Exit(1)
}
