package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/coherence"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/server"
)

const (
	// hotScale is cheap enough that the 63 keys prefill in about a second.
	hotScale = 64
	// hotReplicas is the cluster size behind the router.
	hotReplicas = 2
	// hotZipfS is the Zipf exponent of the key draw.
	hotZipfS = 1.1
	// hotSampleEvery: in a traced window every Nth op asks the program's
	// own tracers to record it, so their span trees can be read back.
	hotSampleEvery = 16
)

var hotProcs = []int{1, 2, 4}

// answer is the prefill's reply for one key: every later reply must be
// byte-identical to it.
type answer struct {
	body   []byte
	digest string
	cycles int64
}

// hot sends /run through an in-process cluster.Router to two oldend
// replicas whose result caches hold every key.
type hot struct {
	seed     uint64
	keys     []config // by Zipf rank
	names    []string
	bodies   [][]byte
	answers  []answer
	replicas []*replica
	router   *cluster.Router
	rtracer  *obs.Tracer
	rclient  *http.Client
	rln      *listener
	tr       atomic.Pointer[tracer]
	clients  []*http.Client
	nextOp   atomic.Int64
	windows  uint64
}

func setupHot(o options) (runner, error) {
	scale := o.scale
	if scale == 0 {
		scale = hotScale
	}
	h := &hot{seed: o.seed, rtracer: obs.New(obs.Config{TraceRing: 256})}
	var keys []config
	for _, k := range sweepKernels {
		for _, sc := range coherence.Kinds() {
			for _, p := range hotProcs {
				keys = append(keys, config{bench: k, procs: p, scale: scale, scheme: sc})
			}
		}
	}
	// The Zipf rank of each key is fixed, so every seed draws the same
	// mix; the seed drives the draw sequence.
	rng := rand.New(rand.NewPCG(0x40, 0x40))
	for _, i := range rng.Perm(len(keys)) {
		c := keys[i]
		h.keys = append(h.keys, c)
		h.names = append(h.names, c.String())
		b, _ := json.Marshal(server.RunRequest{Benchmark: c.bench, Procs: c.procs, Scale: c.scale, Scheme: c.scheme.String()})
		h.bodies = append(h.bodies, b)
	}
	if err := h.boot(); err != nil {
		h.close()
		return nil, err
	}
	if err := h.prefill(); err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

// boot starts the replicas, the router in front of them, and the clients.
func (h *hot) boot() error {
	var urls []string
	for i := 0; i < hotReplicas; i++ {
		r, err := newReplica(&h.tr, "")
		if err != nil {
			return err
		}
		h.replicas = append(h.replicas, r)
		urls = append(urls, r.ln.url)
	}
	h.rclient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	var err error
	h.router, err = cluster.NewRouter(cluster.Config{Replicas: urls, Client: h.rclient, Tracer: h.rtracer})
	if err != nil {
		return err
	}
	if h.rln, err = listen(&timed{next: h.router.Handler(), name: "cluster.handler", tr: &h.tr, hop: "server.handler"}); err != nil {
		return err
	}
	h.clients = newClients(clients)
	return nil
}

// prefill sends every key once through the router, from both clients,
// and keeps the verified answers.
func (h *hot) prefill() error {
	h.answers = make([]answer, len(h.keys))
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for tid, cl := range h.clients {
		wg.Add(1)
		go func(tid int, cl *http.Client) {
			defer wg.Done()
			for i := tid; i < len(h.keys); i += clients {
				rep, err := post(cl, h.rln.url+"/run", h.bodies[i], "")
				if err != nil {
					errs[tid] = fmt.Errorf("prefill %s: %w", h.keys[i], err)
					return
				}
				rec, err := checkRecord(h.keys[i], rep.status, rep.body, nil)
				if err != nil {
					errs[tid] = fmt.Errorf("prefill: %w", err)
					return
				}
				// An executed reply carries its digest in the record; the
				// cache hits that follow carry it in a header too.
				h.answers[i] = answer{body: rep.body, digest: rec.TraceDigest, cycles: rec.Cycles}
			}
		}(tid, cl)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (h *hot) close() {
	closeClients(h.clients)
	if h.rln != nil {
		h.rln.close()
	}
	if h.rclient != nil {
		h.rclient.CloseIdleConnections()
	}
	for _, r := range h.replicas {
		r.close()
	}
}

// checkHot checks one /run reply against the prefill's answer for its key.
func checkHot(c config, rep reply, err error, want answer) error {
	switch {
	case err != nil:
		return fmt.Errorf("%s: %w", c, err)
	case rep.status != http.StatusOK:
		return fmt.Errorf("%s: status %d: %.200s", c, rep.status, rep.body)
	case rep.digest != want.digest:
		return fmt.Errorf("%s: trace digest %q, prefill answered %q", c, rep.digest, want.digest)
	case !bytes.Equal(rep.body, want.body):
		return fmt.Errorf("%s: body differs from the prefill answer", c)
	}
	return nil
}

// measure runs both clients closed-loop for d, each drawing keys from
// its own seeded Zipf stream.
func (h *hot) measure(d time.Duration, tr *tracer) *window {
	h.tr.Store(tr)
	defer h.tr.Store(nil)
	h.windows++
	replicaBefore := make([]metrics.Snapshot, len(h.replicas))
	for i, r := range h.replicas {
		replicaBefore[i] = r.srv.Metrics().Snapshot()
	}
	routerBefore := h.router.Metrics().Snapshot()
	tracers := map[string][]*obs.Tracer{"cluster.handler": {h.rtracer}}
	for _, r := range h.replicas {
		tracers["server.handler"] = append(tracers["server.handler"], r.srv.Tracer())
	}
	var respBytes, responses atomic.Int64
	c := newCollector()
	start := c.begin()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for tid, cl := range h.clients {
		wg.Add(1)
		go func(tid int, cl *http.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(h.seed, h.windows<<8|uint64(tid)))
			zipf := rand.NewZipf(rng, hotZipfS, 1, uint64(len(h.keys)-1))
			for time.Now().Before(deadline) {
				i := zipf.Uint64()
				op := h.nextOp.Add(1)
				cop := startOp(tr, op, tid, op%hotSampleEvery == 0)
				t0 := time.Now()
				rep, err := post(cl, h.rln.url+"/run", h.bodies[i], cop.header())
				lat := time.Since(t0)
				cop.finish(tracers)
				failure := checkHot(h.keys[i], rep, err, h.answers[i])
				smp := sample{key: h.names[i], lat: lat, ops: 1}
				if failure == nil {
					smp.cycles = h.answers[i].cycles
				}
				c.add(smp, failure)
				respBytes.Add(int64(len(rep.body)))
				responses.Add(1)
			}
		}(tid, cl)
	}
	wg.Wait()
	w := c.end()
	if tr != nil {
		flat := map[string]int64{}
		for i, r := range h.replicas {
			addFlat(flat, diffFlat(r.srv.Metrics(), replicaBefore[i]))
		}
		serverLayer(w.layer, flat)
		routerLayer(w.layer, diffFlat(h.router.Metrics(), routerBefore))
		w.layer["server.response_bytes_mean"] = ratio(float64(respBytes.Load()), float64(responses.Load()))
	}
	return w
}
