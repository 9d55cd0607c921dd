package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/coherence"
	"repro/internal/server"
	"repro/internal/trace"
)

// tinyScale keeps the smoke runs to a second or two; at this scale the
// references come from direct runs rather than the pins.
const tinyScale = 1024

// manifest is the repository's BENCHMARK.json.
type manifest struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func tinyOptions(t *testing.T, workload string, traced bool) options {
	return options{
		workload: workload, seed: 7, seconds: 0.4, trace: traced,
		out: t.TempDir(), root: "..", scale: tinyScale, setups: 1,
	}
}

// TestManifestMatchesCode pins BENCHMARK.json to what the code prints.
func TestManifestMatchesCode(t *testing.T) {
	m := loadManifest(t)
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("manifest workloads %s, code %s", got, want)
	}
	e2e := endToEnd([]time.Duration{time.Second}, &window{wall: time.Second})
	if len(m.EndToEnd) != len(e2e) {
		t.Errorf("manifest has %d end-to-end metrics, code %d", len(m.EndToEnd), len(e2e))
	}
	for _, me := range m.EndToEnd {
		if got, ok := e2e[me.Name]; !ok || got.Unit != me.Unit {
			t.Errorf("end-to-end %s (%s): code reports %+v", me.Name, me.Unit, got)
		}
	}
	if len(m.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("manifest has %d per-layer metrics, code %d", len(m.PerLayer), len(perLayerMetrics))
	}
	for i, lm := range perLayerMetrics {
		if m.PerLayer[i].Name != lm.name || m.PerLayer[i].Unit != lm.unit {
			t.Errorf("per-layer %d: manifest %+v, code %+v", i, m.PerLayer[i], lm)
		}
	}
}

// TestSmoke runs every workload untraced and traced at a tiny scale and
// requires every named metric, correct outputs, and a Chrome trace the
// repository's validator accepts.
func TestSmoke(t *testing.T) {
	m := loadManifest(t)
	for _, wl := range workloadNames() {
		t.Run(wl, func(t *testing.T) {
			var out bytes.Buffer
			rep, err := run(tinyOptions(t, wl, false), &out)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Attempted == 0 {
				t.Fatalf("untraced run not correct: %+v\n%s", rep, out.String())
			}
			for _, me := range m.EndToEnd {
				if got, ok := rep.Metrics[me.Name]; !ok || got.Unit != me.Unit || !(got.Value > 0) {
					t.Errorf("end-to-end %s: got %+v, want a positive value in %s", me.Name, got, me.Unit)
				}
			}
			o := tinyOptions(t, wl, true)
			out.Reset()
			rep, err = run(o, &out)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Fatalf("traced run not correct: %+v\n%s", rep, out.String())
			}
			if len(rep.Metrics) != len(m.PerLayer) {
				t.Errorf("traced run printed %d metrics, manifest names %d", len(rep.Metrics), len(m.PerLayer))
			}
			for _, lm := range m.PerLayer {
				if got, ok := rep.Metrics[lm.Name]; !ok || got.Unit != lm.Unit {
					t.Errorf("per-layer %s: got %+v", lm.Name, got)
				}
			}
			for _, name := range []string{"client.ops", "obs.spans", "host.allocs_per_op"} {
				if !(rep.Metrics[name].Value > 0) {
					t.Errorf("%s = %v, want > 0", name, rep.Metrics[name].Value)
				}
			}
			if !strings.Contains(out.String(), "self time by span") {
				t.Errorf("traced run printed no self-time table:\n%s", out.String())
			}
			paths, _ := filepath.Glob(filepath.Join(o.out, "*.trace.json"))
			if len(paths) != 1 {
				t.Fatalf("want one chrome trace, found %v", paths)
			}
			f, err := os.Open(paths[0])
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			st, err := trace.ValidateChrome(f)
			if err != nil {
				t.Fatal(err)
			}
			if st.Events == 0 {
				t.Error("chrome trace holds no spans")
			}
		})
	}
}

// TestLayersReached checks that each workload reaches the layers it is
// meant to load, in a traced tiny run.
func TestLayersReached(t *testing.T) {
	want := map[string][]string{
		"sim-handoff":      {"bench.kernel_ms_mean", "bench.build_ms_mean", "machine.sim_cycles", "rt.cache_lookups", "bench.kernel_ns_per_sim_cycle.bisort"},
		"serve-sweep-cold": {"server.handler_us_mean", "server.run_us_mean", "server.phase_cache_lookups", "bench.restore_build_ms_mean", "bench.run_ms_mean", "machine.remote_refs"},
		"serve-hot-routed": {"cluster.router_self_us_mean", "cluster.proxied", "server.result_cache_hit_ratio", "client.overhead_us_mean"},
	}
	for wl, names := range want {
		t.Run(wl, func(t *testing.T) {
			rep, err := run(tinyOptions(t, wl, true), new(bytes.Buffer))
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range names {
				if !(rep.Metrics[n].Value > 0) {
					t.Errorf("%s = %v, want > 0", n, rep.Metrics[n].Value)
				}
			}
		})
	}
}

// TestMissingPins: with no BENCH_*.json to check against, set-up fails.
func TestMissingPins(t *testing.T) {
	for _, wl := range []string{"sim-handoff", "serve-sweep-cold"} {
		o := tinyOptions(t, wl, false)
		o.scale, o.root = 0, t.TempDir()
		if _, err := run(o, new(bytes.Buffer)); err == nil {
			t.Errorf("%s: run without pins succeeded", wl)
		}
	}
}

// TestCheckSimCatchesTampering: a changed cycle count or statistic fails
// the sim-handoff check.
func TestCheckSimCatchesTampering(t *testing.T) {
	c := config{bench: "bisort", procs: 4, scale: tinyScale, scheme: coherence.Bilateral}
	info, _ := bench.Get(c.bench)
	res, _, _, err := bench.RunPhased(info, c.benchConfig(), nil)
	want := ref{cycles: res.Cycles, stats: res.Stats}
	if err := checkSim(c, res, err, want); err != nil {
		t.Fatalf("untampered run rejected: %v", err)
	}
	bad := res
	bad.Cycles++
	if checkSim(c, bad, nil, want) == nil {
		t.Error("tampered cycle count accepted")
	}
	bad = res
	bad.Stats.Migrations++
	if checkSim(c, bad, nil, want) == nil {
		t.Error("tampered statistics accepted")
	}
	bad = res
	bad.Check++
	if checkSim(c, bad, nil, want) == nil {
		t.Error("unverified run accepted")
	}
}

// tamper rewrites one field of a JSON record.
func tamper(t *testing.T, body []byte, field string, v any) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	m[field] = v
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckRecordCatchesTampering: a served record whose cycle count or
// trace digest differs from the reference fails the sweep check.
func TestCheckRecordCatchesTampering(t *testing.T) {
	c := config{bench: "treeadd", procs: 4, scale: tinyScale, scheme: coherence.GlobalKnowledge}
	want, err := loadRef("..", c)
	if err != nil {
		t.Fatal(err)
	}
	var tr atomic.Pointer[tracer]
	r, err := newReplica(&tr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	cl := newClients(1)[0]
	rep, err := post(cl, r.ln.url+"/batch", batchBody([]config{c}), "")
	results := checkBatch([]config{c}, rep, err, map[config]ref{c: want})
	if results[0].err != nil {
		t.Fatalf("untampered batch rejected: %v", results[0].err)
	}
	body, _ := json.Marshal(results[0].rec)
	if _, err := checkRecord(c, http.StatusOK, body, &want); err != nil {
		t.Fatalf("re-encoded record rejected: %v", err)
	}
	if _, err := checkRecord(c, http.StatusOK, tamper(t, body, "cycles", want.cycles+1), &want); err == nil {
		t.Error("tampered cycle count accepted")
	}
	if _, err := checkRecord(c, http.StatusOK, tamper(t, body, "trace_digest", "events=0"), &want); err == nil {
		t.Error("tampered trace digest accepted")
	}
	if _, err := checkRecord(c, http.StatusOK, tamper(t, body, "scheme", "local"), &want); err == nil {
		t.Error("record for another configuration accepted")
	}
}

// TestCheckHotCatchesTampering: a reply differing from the prefill answer
// in one body byte or in its digest header fails the hot check.
func TestCheckHotCatchesTampering(t *testing.T) {
	c := config{bench: "power", procs: 2, scale: tinyScale}
	want := answer{body: []byte(`{"cycles":12}` + "\n"), digest: "events=1"}
	good := reply{status: http.StatusOK, digest: want.digest, body: append([]byte(nil), want.body...)}
	if err := checkHot(c, good, nil, want); err != nil {
		t.Fatalf("identical reply rejected: %v", err)
	}
	bad := good
	bad.body = append([]byte(nil), want.body...)
	bad.body[10] = '3'
	if checkHot(c, bad, nil, want) == nil {
		t.Error("tampered body accepted")
	}
	bad = good
	bad.digest = "events=2"
	if checkHot(c, bad, nil, want) == nil {
		t.Error("tampered digest accepted")
	}
	bad = good
	bad.status = http.StatusTooManyRequests
	if checkHot(c, bad, nil, want) == nil {
		t.Error("429 accepted")
	}
}

// TestRunCountsTamperedAnswers: a run whose expected answers disagree
// with the program's reports the failures and is not correct.
func TestRunCountsTamperedAnswers(t *testing.T) {
	o := tinyOptions(t, "serve-sweep-cold", false)
	r, err := setupSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	s := r.(*sweep)
	defer s.close()
	c := s.batches["mst"][1]
	want := s.refs[c]
	want.cycles++
	s.refs[c] = want
	w := s.measure(time.Millisecond, nil)
	if w.failed != int64(w.passes) {
		t.Errorf("sweep: %d failures over %d passes, want one per pass", w.failed, w.passes)
	}
	if rep := newReport(w); rep.Correct {
		t.Error("sweep report with failures is marked correct")
	}

	o = tinyOptions(t, "serve-hot-routed", false)
	r, err = setupHot(o)
	if err != nil {
		t.Fatal(err)
	}
	h := r.(*hot)
	defer h.close()
	// Rank 0 is the Zipf draw's most frequent key.
	h.answers[0].body = append([]byte(" "), h.answers[0].body...)
	w = h.measure(200*time.Millisecond, nil)
	if w.failed == 0 || newReport(w).Correct {
		t.Errorf("hot: tampered answer not caught (%d failed of %d)", w.failed, w.attempted)
	}
}

// stableHeaders drops the per-request trace identity headers.
func stableHeaders(h http.Header) string {
	var lines []string
	for k, vs := range h {
		if k == "X-Request-Id" || k == "X-Oldend-Trace-Id" || k == "Date" {
			continue
		}
		lines = append(lines, k+": "+strings.Join(vs, ","))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestTimedLeavesResponsesUnchanged: the timing wrappers around
// Server.Handler and Router.Handler, traced or not, serve exactly the
// bytes the bare handlers serve.
func TestTimedLeavesResponsesUnchanged(t *testing.T) {
	var tr atomic.Pointer[tracer]
	r, err := newReplica(&tr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	router, err := cluster.NewRouter(cluster.Config{Replicas: []string{r.ln.url}})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(server.RunRequest{Benchmark: "em3d", Procs: 2, Scale: tinyScale})
	serve := func(h http.Handler, tp string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body))
		if tp != "" {
			req.Header.Set("traceparent", tp)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	serve(r.srv.Handler(), "") // fill the result cache: every later reply is a hit

	cases := []struct {
		name string
		bare http.Handler
		wrap *timed
	}{
		{"server", r.srv.Handler(), &timed{next: r.srv.Handler(), name: "server.handler", tr: &tr}},
		{"router", router.Handler(), &timed{next: router.Handler(), name: "cluster.handler", tr: &tr, hop: "server.handler"}},
	}
	for _, tc := range cases {
		want := serve(tc.bare, "")
		if want.Code != http.StatusOK || want.Header().Get("X-Oldend-Cache") != "hit" {
			t.Fatalf("%s: bare handler answered %d, cache %q", tc.name, want.Code, want.Header().Get("X-Oldend-Cache"))
		}
		for _, traced := range []bool{false, true} {
			tp := ""
			if traced {
				tr.Store(newTracer())
				tp = traceparent(1, 0, 1, false)
			} else {
				tr.Store(nil)
			}
			got := serve(tc.wrap, tp)
			if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) ||
				stableHeaders(got.Header()) != stableHeaders(want.Header()) {
				t.Errorf("%s (traced=%v): wrapped reply differs:\n%s\n%s\nvs\n%s\n%s", tc.name, traced,
					stableHeaders(got.Header()), got.Body.Bytes(), stableHeaders(want.Header()), want.Body.Bytes())
			}
			if traced && tr.Load().count(tc.wrap.name) != 1 {
				t.Errorf("%s: traced wrapper recorded %d spans, want 1", tc.name, tr.Load().count(tc.wrap.name))
			}
		}
	}
	tr.Store(nil)
}

// TestSelfTime: a span's self time excludes the union of its children.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	t0 := tr.epoch
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr.record(span{id: 1, name: "root", start: at(0), end: at(10)})
	tr.record(span{id: 2, parent: 1, name: "a", start: at(1), end: at(5)})
	tr.record(span{id: 3, parent: 1, name: "b", start: at(4), end: at(7)})  // overlaps a
	tr.record(span{id: 4, parent: 1, name: "c", start: at(9), end: at(12)}) // runs past root
	self := map[string]time.Duration{}
	for _, r := range tr.selfTimes() {
		self[r.name] = r.own
	}
	if got := self["root"]; got != 3*time.Millisecond {
		t.Errorf("root self time %v, want 3ms", got)
	}
	if got := self["a"]; got != 4*time.Millisecond {
		t.Errorf("leaf self time %v, want 4ms", got)
	}
}

// TestTraceparentRoundTrip: the op identity survives the header.
func TestTraceparentRoundTrip(t *testing.T) {
	op, tid, parent := parseTraceparent(traceparent(123456789, 1, 42, true))
	if op != 123456789 || tid != 1 || parent != 42 {
		t.Errorf("got op %d tid %d parent %d", op, tid, parent)
	}
	if got := traceID(5, 0); len(got) != 32 || !strings.HasSuffix(got, "05") {
		t.Errorf("trace id %q", got)
	}
}
