package bench_test

import (
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/coherence"
)

// recordedBarneshutBytes bounds the bytes one recorded barneshut run
// allocates. The run emits about a million events into a default-capacity
// ring (262,144 × 48 B ≈ 12.6 MB once wrapped); the chunked ring fills
// that in place, where a ring grown by append copied itself to about
// 78 MB on the way.
const recordedBarneshutBytes = 16_000_000

// TestRecordedRunAllocBound pins the host-independent memory cost of the
// recorder on the serving path: bench.RunPhasedRecorded on barneshut at
// P=4, scale 16, allocates at most recordedBarneshutBytes in total.
func TestRecordedRunAllocBound(t *testing.T) {
	info, ok := bench.Get("barneshut")
	if !ok {
		t.Fatal("barneshut not registered")
	}
	cfg := bench.Config{Procs: 4, Scale: 16, Scheme: coherence.LocalKnowledge}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, rec, _, _, err := bench.RunPhasedRecorded(info, cfg, nil)
	runtime.ReadMemStats(&after)
	if err != nil || !res.Verified() {
		t.Fatalf("recorded run failed: err=%v verified=%v", err, res.Verified())
	}
	if rec.TraceDigest == "" {
		t.Fatal("recorded run carries no trace digest")
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("recorded barneshut run allocated %.1f MB", float64(got)/1e6)
	if got > recordedBarneshutBytes {
		t.Errorf("recorded barneshut run allocated %d bytes; bound %d", got, recordedBarneshutBytes)
	}
}
