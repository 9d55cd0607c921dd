package record

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// Wall-clock measurements live in their own artifact, deliberately apart
// from the pinned BENCH_<name>.json records: cycle counts are deterministic
// and gate at zero tolerance, wall time is a property of the host and never
// reproduces byte-for-byte. A WallFile is therefore never committed as a
// pin and never feeds the regression gate — it is the measured companion
// the report renders next to the deterministic numbers (the ns/sim-cycle
// column), and the CI bench-wallclock job's informational artifact.

// WallSchemaVersion is bumped whenever the wall-clock layout changes
// incompatibly.
const WallSchemaVersion = 1

// WallFilename is the canonical name runWallclock writes and oldenreport's
// -wallclock flag defaults to reading.
const WallFilename = "WALLCLOCK.json"

// WallRecord is one wall-clock measurement: a kernel under one
// configuration, timed end to end over the simulated region. Cycles is
// deterministic; WallNs is the best (minimum) of Runs repetitions, the
// standard way to strip scheduler and cache noise from a point sample.
// Syncs and Handoffs are the event loop's deterministic work counts over
// one run (zero when the run used the channel scheduler): they explain the
// wall time the way Cycles does, per scheduler decision instead of per
// simulated cycle.
type WallRecord struct {
	Benchmark string `json:"benchmark"`
	Procs     int    `json:"procs"`
	Scheme    string `json:"scheme"`
	Scale     int    `json:"scale"`
	Runs      int    `json:"runs"`
	Cycles    int64  `json:"cycles"`
	WallNs    int64  `json:"wall_ns"`
	Syncs     int64  `json:"syncs,omitempty"`
	Handoffs  int64  `json:"handoffs,omitempty"`
}

// Key names the configuration within a wall file.
func (r WallRecord) Key() string {
	return fmt.Sprintf("%s P=%d scheme=%s", r.Benchmark, r.Procs, r.Scheme)
}

// NsPerCycle is the metric the report renders: wall-clock nanoseconds the
// simulator spends per simulated cycle. Lower is a faster simulator; the
// simulated program is unchanged by construction.
func (r WallRecord) NsPerCycle() float64 {
	if r.Cycles <= 0 {
		return 0
	}
	return float64(r.WallNs) / float64(r.Cycles)
}

// NsPerHandoff is wall-clock nanoseconds per scheduler handoff, or zero
// when the record carries no handoff count.
func (r WallRecord) NsPerHandoff() float64 {
	if r.Handoffs <= 0 {
		return 0
	}
	return float64(r.WallNs) / float64(r.Handoffs)
}

// WallFile is the on-disk wall-clock artifact: every measured
// configuration from one `oldenbench -wallclock` invocation.
type WallFile struct {
	Schema  int          `json:"schema"`
	Records []WallRecord `json:"records"`
}

// Geomean returns the geometric mean ns/sim-cycle across all records —
// the single number EXPERIMENTS.md tracks across hot-path work.
func (f WallFile) Geomean() float64 {
	var sum float64
	var n int
	for _, r := range f.Records {
		if v := r.NsPerCycle(); v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Marshal renders the file sorted by key with two-space indentation and a
// trailing newline. (Stable ordering for readable diffs; the values
// themselves are wall-clock and will differ run to run.)
func (f WallFile) Marshal() ([]byte, error) {
	f.Schema = WallSchemaVersion
	sort.Slice(f.Records, func(i, j int) bool {
		a, b := f.Records[i], f.Records[j]
		if a.Benchmark != b.Benchmark {
			return benchLess(a.Benchmark, b.Benchmark)
		}
		return a.Key() < b.Key()
	})
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// SaveWall writes the file to path in its canonical form.
func (f WallFile) SaveWall(path string) error {
	b, err := f.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// LoadWall reads one wall-clock file and checks its schema.
func LoadWall(path string) (WallFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return WallFile{}, err
	}
	var f WallFile
	if err := json.Unmarshal(b, &f); err != nil {
		return WallFile{}, fmt.Errorf("record: %s: %w", path, err)
	}
	if f.Schema != WallSchemaVersion {
		return WallFile{}, fmt.Errorf("record: %s: wall schema %d, want %d (re-measure with oldenbench -wallclock)",
			path, f.Schema, WallSchemaVersion)
	}
	return f, nil
}
