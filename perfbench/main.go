// Command perfbench is the repository's wall-time benchmark. It runs one
// named workload for a fixed time from a seed, checks every output
// against a pinned or prefilled answer, and prints each end-to-end
// metric (or, with --trace 1, each per-layer metric) by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":18,"failed":0,"metrics":{"ops_per_s":{"value":0.71,"unit":"ops/s"},...}}
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload sim-handoff --seed 1 --seconds 30 --trace 0
//
// The workloads and the metrics are described in README.md. The program
// is driven only through its public entry points: bench.RunPhased,
// server.New and cluster.NewRouter. A run exits 1 when any output fails
// its check and 2 on a usage or set-up error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// processStart is taken during package initialisation, as close to
// process start as Go code can observe; setup_s counts from here.
var processStart = time.Now()

// options is one invocation's configuration.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// out is the directory the traced run writes its Chrome trace to.
	out string
	// root is the directory holding the BENCH_*.json pins.
	root string
	// scale overrides the workload's problem scale. Zero keeps the
	// pinned scale; the tests use tiny scales, whose reference answers
	// are computed during set-up instead of read from the pins.
	scale int
	// setups is how many times set-up runs; setup_s is their median.
	setups int
}

// workload is one named traffic shape.
type workload struct {
	name string
	// setup builds the workload's state from the seed; it is timed.
	setup func(o options) (runner, error)
}

// runner measures a set-up workload. measure runs closed-loop traffic
// for about d and returns what it saw; tr is nil for an untraced window.
type runner interface {
	measure(d time.Duration, tr *tracer) *window
	close()
}

var workloads = []workload{
	{name: "sim-handoff", setup: setupSimHandoff},
	{name: "serve-sweep-cold", setup: setupSweep},
	{name: "serve-hot-routed", setup: setupHot},
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := rep.writeJSON(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{root: ".", setups: 3}
	var seed int64
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 30, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and a Chrome trace")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for the traced run's Chrome trace")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if findWorkload(o.workload) == nil {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return o, errors.New("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return o, errors.New("--trace must be 0 or 1")
	}
	o.seed = uint64(seed)
	o.trace = trace == 1
	return o, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// run sets the workload up o.setups times, measures the last set-up and
// returns the report; the human-readable part is written to w as it goes.
func run(o options, w io.Writer) (*report, error) {
	wl := findWorkload(o.workload)
	printProvenance(w, o)

	var setups []time.Duration
	var r runner
	for i := 0; i < o.setups; i++ {
		if r != nil {
			r.close()
			runtime.GC() // an earlier set-up's garbage is not this one's
		}
		start := time.Now()
		var err error
		if r, err = wl.setup(o); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		d := time.Since(start)
		if i == 0 {
			// The first set-up also carries process start.
			d += start.Sub(processStart)
		}
		setups = append(setups, d)
	}
	defer r.close()

	total := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		plain := r.measure(total, nil)
		rep := newReport(plain)
		rep.Metrics = endToEnd(setups, plain)
		rep.print(w, plain)
		return rep, nil
	}
	// A traced run measures half its time untraced and half traced, so
	// the difference between the two is the tracing overhead.
	plain := r.measure(total/2, nil)
	tr := newTracer()
	traced := r.measure(total/2, tr)
	rep := newReport(plain, traced)
	rep.Metrics = perLayer(plain, traced, tr)
	rep.print(w, plain, traced)
	tr.printSelfTimes(w)
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(o.out, fmt.Sprintf("perfbench-%s-seed%d.trace.json", o.workload, o.seed))
	if err := tr.writeChromeFile(path, provenance(o)); err != nil {
		return nil, fmt.Errorf("writing chrome trace: %w", err)
	}
	fmt.Fprintf(w, "chrome trace: %s (%d spans, %d dropped)\n", path, len(tr.spans), tr.dropped)
	return rep, nil
}

// provenance is what each report records about where it ran.
func provenance(o options) map[string]string {
	return map[string]string{
		"workload":   o.workload,
		"seed":       fmt.Sprint(o.seed),
		"seconds":    fmt.Sprint(o.seconds),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit(),
	}
}

func printProvenance(w io.Writer, o options) {
	p := provenance(o)
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "# %s: %s\n", k, p[k])
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// saw a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown (built outside a repository)"
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	failures []string
}

func newReport(windows ...*window) *report {
	rep := &report{}
	for _, w := range windows {
		rep.Attempted += w.attempted
		rep.Failed += w.failed
		rep.failures = append(rep.failures, w.failures...)
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	return rep
}

func (rep *report) print(w io.Writer, windows ...*window) {
	for i, win := range windows {
		label := "untraced"
		if i == 1 {
			label = "traced"
		}
		fmt.Fprintf(w, "%s window: %d ops attempted, %d failed; %d requests (latency samples) over %d intervals, %.3f s measured\n",
			label, win.attempted, win.failed, len(win.samples), len(win.intervals), win.measuredSeconds())
	}
	for _, f := range rep.failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "%-44s %16.6g %s\n", n, m.Value, m.Unit)
	}
}

// writeJSON prints the report as the final line. Non-finite values
// (a ratio over an empty base) are reported as 0.
func (rep *report) writeJSON(w io.Writer) error {
	for n, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
			rep.Metrics[n] = m
		}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
