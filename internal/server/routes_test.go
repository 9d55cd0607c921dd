package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/metrics"
)

// requestSeries returns oldend_requests_total's series as path → code →
// count.
func requestSeries(reg *metrics.Registry, name string) map[string]map[string]int64 {
	out := map[string]map[string]int64{}
	for _, sm := range reg.Snapshot().Samples {
		if sm.Name != name {
			continue
		}
		var path, code string
		for _, l := range sm.Labels {
			switch l.Key {
			case "path":
				path = l.Value
			case "code":
				code = l.Value
			}
		}
		if out[path] == nil {
			out[path] = map[string]int64{}
		}
		out[path][code] = sm.Value
	}
	return out
}

// TestRequestsLabelledByRoute pins that oldend_requests_total is keyed by
// the matched route, not the raw URL path: 1000 distinct unknown and
// /debug/trace/<id> paths add one series per route (and status), so
// hostile traffic cannot grow the registry without bound.
func TestRequestsLabelledByRoute(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Shutdown(context.Background())
	h := s.Handler()
	serve := func(path string) int {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w.Code
	}
	if st := serve("/healthz"); st != 200 {
		t.Fatalf("/healthz = %d", st)
	}
	before := s.Metrics().Len()
	for i := 0; i < 500; i++ {
		serve(fmt.Sprintf("/no/such/path/%d", i))
		serve(fmt.Sprintf("/debug/trace/%032x", i))
	}
	if grown := s.Metrics().Len() - before; grown > 2 {
		t.Errorf("1000 distinct paths added %d series; want at most one per route", grown)
	}
	got := requestSeries(s.Metrics(), "oldend_requests_total")
	want := map[string]map[string]int64{
		"/healthz":      {"200": 1},
		"other":         {"404": 500},
		"/debug/trace/": {"404": 500},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("oldend_requests_total series = %v, want %v", got, want)
	}
}
