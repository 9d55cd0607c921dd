package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/trace"
)

// TestDebugReadersDuringSampledRuns pins the recorder's single-writer
// contract on the sampled path: /debug/requests, /debug/trace/<id> and
// its tree view are polled while sampled runs are in flight, and the
// race detector must see no reader touch a recorder its run is still
// writing. Once each run returns, its export carries the simulated
// events, so the recorder does reach the span tree.
func TestDebugReadersDuringSampledRuns(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bodies := []string{
		`{"benchmark":"treeadd","procs":4,"scale":16,"scheme":"local"}`,
		`{"benchmark":"treeadd","procs":4,"scale":16,"scheme":"global"}`,
		`{"benchmark":"em3d","procs":4,"scale":64,"scheme":"bilateral"}`,
		`{"benchmark":"em3d","procs":4,"scale":64,"scheme":"local"}`,
	}
	ids := make([]string, len(bodies))
	for i := range ids {
		ids[i] = fmt.Sprintf("%032x", 0xabc0+i)
	}

	done := make(chan struct{})
	var pollers sync.WaitGroup
	for p := 0; p < 2; p++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				get(t, ts, "/debug/requests")
				for _, id := range ids {
					get(t, ts, "/debug/trace/"+id)
					get(t, ts, "/debug/trace/"+id+"?format=tree")
				}
			}
		}()
	}

	var runs sync.WaitGroup
	for i, body := range bodies {
		runs.Add(1)
		go func() {
			defer runs.Done()
			hdr := map[string]string{"traceparent": "00-" + ids[i] + "-b7ad6b7169203331-01"}
			if st, b, _ := postRunHdr(t, ts, body, hdr); st != 200 {
				t.Errorf("%s = %d: %s", body, st, b)
			}
		}()
	}
	runs.Wait()
	close(done)
	pollers.Wait()

	for i, id := range ids {
		st, body := get(t, ts, "/debug/trace/"+id)
		if st != 200 {
			t.Fatalf("%s: /debug/trace = %d", bodies[i], st)
		}
		stats, err := trace.ValidateChrome(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", bodies[i], err)
		}
		if stats.ByCat["thread"] == 0 {
			t.Errorf("%s: export has no simulated residency events", bodies[i])
		}
	}
}

// get is getBody for use off the test goroutine: it reports a failed
// request with Errorf instead of Fatal.
func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Errorf("GET %s: %v", path, err)
		return 0, nil
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}
