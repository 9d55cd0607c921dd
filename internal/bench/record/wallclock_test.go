package record

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func wallFixture() WallFile {
	return WallFile{Records: []WallRecord{
		{Benchmark: "power", Procs: 4, Scheme: "local", Scale: 16, Runs: 3, Cycles: 2_000_000, WallNs: 8_000_000,
			Syncs: 1_000_000, Handoffs: 400_000},
		{Benchmark: "treeadd", Procs: 4, Scheme: "local", Scale: 16, Runs: 3, Cycles: 1_000_000, WallNs: 1_000_000},
	}}
}

func TestWallNsPerCycle(t *testing.T) {
	r := WallRecord{Cycles: 4, WallNs: 10}
	if got := r.NsPerCycle(); got != 2.5 {
		t.Fatalf("NsPerCycle = %v; want 2.5", got)
	}
	if got := (WallRecord{Cycles: 0, WallNs: 10}).NsPerCycle(); got != 0 {
		t.Fatalf("NsPerCycle with zero cycles = %v; want 0", got)
	}
}

func TestWallNsPerHandoff(t *testing.T) {
	r := WallRecord{WallNs: 10, Handoffs: 4}
	if got := r.NsPerHandoff(); got != 2.5 {
		t.Fatalf("NsPerHandoff = %v; want 2.5", got)
	}
	if got := (WallRecord{WallNs: 10}).NsPerHandoff(); got != 0 {
		t.Fatalf("NsPerHandoff with no handoff count = %v; want 0", got)
	}
}

func TestWallGeomean(t *testing.T) {
	// 1 ns/cycle and 4 ns/cycle: geomean 2.
	f := wallFixture()
	if got := f.Geomean(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("Geomean = %v; want 2", got)
	}
	if got := (WallFile{}).Geomean(); got != 0 {
		t.Fatalf("empty Geomean = %v; want 0", got)
	}
}

func TestWallSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, WallFilename)
	f := wallFixture()
	if err := f.SaveWall(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadWall(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != WallSchemaVersion || len(got.Records) != 2 {
		t.Fatalf("round trip: schema=%d records=%d", got.Schema, len(got.Records))
	}
	if want := wallFixture().Records[0]; got.Records[1] != want {
		t.Fatalf("round trip changed a record: %+v, want %+v", got.Records[1], want)
	}
	// Marshal sorts by Table 1 order: treeadd before power.
	if got.Records[0].Benchmark != "treeadd" || got.Records[1].Benchmark != "power" {
		t.Fatalf("records not in table order: %v, %v", got.Records[0].Benchmark, got.Records[1].Benchmark)
	}
}

func TestWallLoadRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, WallFilename)
	if err := os.WriteFile(path, []byte(`{"schema": 99, "records": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadWall(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("LoadWall on wrong schema: err = %v", err)
	}
}

func TestWallMarkdown(t *testing.T) {
	md := WallMarkdown(wallFixture())
	for _, want := range []string{
		"## Simulator throughput — wall clock",
		"ns/sim-cycle",
		"ns/handoff",
		"| treeadd | 4 | local | 1/16 | 1000000 | 1.00 | 1.0 | – | – |",
		"| power | 4 | local | 1/16 | 2000000 | 8.00 | 4.0 | 400000 | 20.0 |",
		"Geomean: 2.0 ns/sim-cycle over 2 configurations",
		"best of 3 runs",
	} {
		if !strings.Contains(md, want) {
			t.Fatalf("WallMarkdown missing %q in:\n%s", want, md)
		}
	}
}
