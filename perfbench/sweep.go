package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/bench/record"
	"repro/internal/coherence"
	"repro/internal/obs"
	"repro/internal/server"
)

// sweepKernels are the serve-sweep-cold kernels: execute-bound on the
// access path, with a light scheduler load.
var sweepKernels = []string{"barneshut", "mst", "em3d", "health", "tsp", "treeadd", "power"}

// clients is the closed loop's client count: one per core of the
// reference host.
const clients = 2

// sweep sends one /batch per kernel (P=4, every scheme) to a single
// in-process oldend, with a fresh server, cold caches, every pass.
type sweep struct {
	batches map[string][]config
	bodies  map[string][]byte
	refs    map[config]ref
	rng     *rand.Rand
	rep     *replica
	used    bool // rep has served a timed pass
	tr      atomic.Pointer[tracer]
	clients []*http.Client
	nextOp  atomic.Int64
}

// batchBody renders the /batch request for cs.
func batchBody(cs []config) []byte {
	var req server.BatchRequest
	for _, c := range cs {
		req.Runs = append(req.Runs, server.RunRequest{
			Benchmark: c.bench, Procs: c.procs, Scale: c.scale, Scheme: c.scheme.String(),
		})
	}
	b, _ := json.Marshal(req) // plain structs always marshal
	return b
}

func setupSweep(o options) (runner, error) {
	scale := o.scale
	if scale == 0 {
		scale = pinnedScale
	}
	s := &sweep{
		batches: map[string][]config{},
		bodies:  map[string][]byte{},
		rng:     rand.New(rand.NewPCG(o.seed, 0x5e)),
	}
	var all, warm []config
	for _, k := range sweepKernels {
		for _, sc := range coherence.Kinds() {
			s.batches[k] = append(s.batches[k], config{bench: k, procs: bench.CatalogDefaultProcs, scale: scale, scheme: sc})
		}
		s.bodies[k] = batchBody(s.batches[k])
		all = append(all, s.batches[k]...)
		warm = append(warm, config{bench: k, procs: bench.CatalogDefaultProcs, scale: scale * warmFactor})
	}
	var err error
	if s.refs, err = loadRefs(o.root, all); err != nil {
		return nil, err
	}
	if s.rep, err = newReplica(&s.tr, ""); err != nil {
		return nil, err
	}
	s.clients = newClients(clients)
	// One warm-up batch, one item per kernel at a scale no timed batch
	// uses, so their result cache stays cold: it settles the server's
	// per-kernel static phase plans and the client connection before the
	// first timed pass.
	rep, err := post(s.clients[0], s.rep.ln.url+"/batch", batchBody(warm), "")
	for _, e := range checkBatch(warm, rep, err, nil) {
		if e.err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", e.err)
		}
	}
	return s, nil
}

func (s *sweep) close() {
	closeClients(s.clients)
	s.rep.close()
}

// itemResult is one checked batch item.
type itemResult struct {
	rec record.RunRecord
	err error
}

// checkRecord checks one served record against the configuration asked
// for and, when want is non-nil, against its expected answer.
func checkRecord(c config, status int, body []byte, want *ref) (record.RunRecord, error) {
	var rec record.RunRecord
	if status != http.StatusOK {
		return rec, fmt.Errorf("%s: status %d: %.200s", c, status, body)
	}
	if err := json.Unmarshal(body, &rec); err != nil {
		return rec, fmt.Errorf("%s: bad record: %v", c, err)
	}
	switch {
	case rec.Benchmark != c.bench || rec.Procs != c.procs || rec.Scale != c.scale ||
		rec.Scheme != c.scheme.String() || rec.Mode != "heuristic" || rec.Baseline:
		return rec, fmt.Errorf("%s: record is for %s P=%d scale=%d %s %s", c, rec.Benchmark, rec.Procs, rec.Scale, rec.Scheme, rec.Mode)
	case !rec.Verified:
		return rec, fmt.Errorf("%s: record not verified", c)
	case want == nil:
	case rec.Cycles != want.cycles:
		return rec, fmt.Errorf("%s: %d cycles, pinned %d", c, rec.Cycles, want.cycles)
	case rec.TraceDigest != want.digest:
		return rec, fmt.Errorf("%s: trace digest %s, pinned %s", c, rec.TraceDigest, want.digest)
	}
	return rec, nil
}

// checkBatch checks a /batch reply item by item. refs may be nil (the
// warm-up, which has no expected answers beyond verification).
func checkBatch(cs []config, rep reply, err error, refs map[config]ref) []itemResult {
	out := make([]itemResult, len(cs))
	fail := func(e error) []itemResult {
		for i := range out {
			out[i].err = e
		}
		return out
	}
	if err != nil {
		return fail(err)
	}
	if rep.status != http.StatusOK {
		return fail(fmt.Errorf("batch status %d: %.200s", rep.status, rep.body))
	}
	var items []server.BatchItem
	if err := json.Unmarshal(rep.body, &items); err != nil {
		return fail(fmt.Errorf("bad batch response: %v", err))
	}
	if len(items) != len(cs) {
		return fail(fmt.Errorf("batch answered %d items for %d runs", len(items), len(cs)))
	}
	for i, c := range cs {
		var want *ref
		if r, ok := refs[c]; ok {
			want = &r
		}
		out[i].rec, out[i].err = checkRecord(c, items[i].Status, items[i].Record, want)
	}
	return out
}

// sweepAcc gathers a traced window's per-layer figures.
type sweepAcc struct {
	mu           sync.Mutex
	stats        statsSum
	kernelDur    map[string]time.Duration
	kernelCycles map[string]int64
	respBytes    int64
	responses    int64
}

// measure runs whole passes until d of pass time has elapsed. Each pass
// sends the seven batches from two closed-loop clients to a server no
// earlier pass has touched, so its result and phase caches start cold.
// Restarts between passes are not timed.
//
// A pass sends the batches in one rotation of sweepKernels, and each
// run of seven passes holds all seven rotations, in a seeded order.
// Which batches overlap depends on the order, and an overlap with
// barneshut multiplies a light batch's latency; this way every seven
// passes hold the same overlaps, and the latencies hardly depend on the
// seed.
func (s *sweep) measure(d time.Duration, tr *tracer) *window {
	s.tr.Store(tr)
	defer s.tr.Store(nil)
	c := newCollector()
	acc := &sweepAcc{kernelDur: map[string]time.Duration{}, kernelCycles: map[string]int64{}}
	serverFlat := map[string]int64{}
	c.begin()
	var round []int
	for c.win.passes == 0 || c.win.measuredSeconds() < d.Seconds() {
		if len(round) == 0 {
			round = s.rng.Perm(len(sweepKernels))
		}
		rot := round[0]
		round = round[1:]
		if s.used {
			s.rep.close()
			debug.FreeOSMemory() // the old server's memory is not the next pass's
			rep, err := newReplica(&s.tr, "")
			if err != nil {
				// Without a server no further pass can run; the window
				// ends with the passes it has.
				c.add(sample{key: "restart", ops: 1}, fmt.Errorf("restarting oldend: %w", err))
				break
			}
			s.rep = rep
		}
		s.used = true
		before := s.rep.srv.Metrics().Snapshot()
		queue := make(chan string, len(sweepKernels))
		for i := range sweepKernels {
			queue <- sweepKernels[(rot+i)%len(sweepKernels)]
		}
		close(queue)
		passStart := time.Now()
		var wg sync.WaitGroup
		for tid, cl := range s.clients {
			wg.Add(1)
			go func(tid int, cl *http.Client) {
				defer wg.Done()
				for k := range queue {
					s.batch(k, tid, cl, c, tr, acc)
				}
			}(tid, cl)
		}
		wg.Wait()
		c.pass(passStart)
		addFlat(serverFlat, diffFlat(s.rep.srv.Metrics(), before))
	}
	w := c.end()
	if tr != nil {
		acc.stats.report(w.layer, w.passes)
		serverLayer(w.layer, serverFlat)
		w.layer["server.response_bytes_mean"] = ratio(float64(acc.respBytes), float64(acc.responses))
		for k, d := range acc.kernelDur {
			w.layer["bench.kernel_ns_per_sim_cycle."+k] = float64(d) / float64(acc.kernelCycles[k])
		}
	}
	return w
}

// batch sends kernel k's batch and checks every item.
func (s *sweep) batch(k string, tid int, cl *http.Client, c *collector, tr *tracer, acc *sweepAcc) {
	cop := startOp(tr, s.nextOp.Add(1), tid, true)
	t0 := time.Now()
	rep, err := post(cl, s.rep.ln.url+"/batch", s.bodies[k], cop.header())
	lat := time.Since(t0)
	trees := cop.finish(map[string][]*obs.Tracer{"server.handler": {s.rep.srv.Tracer()}})
	cs := s.batches[k]
	results := checkBatch(cs, rep, err, s.refs)
	smp := sample{key: k, lat: lat, ops: len(cs)}
	errs := make([]error, len(results))
	for i, r := range results {
		errs[i] = r.err
		if r.err == nil {
			smp.cycles += r.rec.Cycles
		}
	}
	c.add(smp, errs...)
	if tr == nil {
		return
	}
	kd := kernelTime(trees)
	acc.mu.Lock()
	defer acc.mu.Unlock()
	acc.respBytes += int64(len(rep.body))
	acc.responses++
	for _, r := range results {
		if r.err == nil {
			acc.stats.add(r.rec.Cycles, r.rec.Stats, r.rec.Metrics)
		}
	}
	if kd > 0 && smp.failed == 0 {
		acc.kernelDur[k] += kd
		acc.kernelCycles[k] += smp.cycles
	}
}

// kernelTime sums the kernel phases the server's own spans recorded.
func kernelTime(trees []obs.TraceTree) time.Duration {
	var sum time.Duration
	var walk func(st obs.SpanTree)
	walk = func(st obs.SpanTree) {
		if st.Name == "phase:kernel" {
			sum += time.Duration(st.DurUS) * time.Microsecond
		}
		for _, ch := range st.Children {
			walk(ch)
		}
	}
	for _, tt := range trees {
		walk(tt.Root)
	}
	return sum
}
