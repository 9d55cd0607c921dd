package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/coherence"
	"repro/internal/metrics"
)

// simHandoffKernels are the kernels whose syncs almost all hand off, so
// the machine scheduler does most of the work.
var simHandoffKernels = []string{"bisort", "voronoi", "perimeter"}

// warmFactor divides a workload's problem size once more for its
// set-up's warm-up runs: cheap, and never a timed configuration.
const warmFactor = 16

// simHandoff runs bench.RunPhased directly, with a fresh build every op,
// from two closed-loop clients.
type simHandoff struct {
	configs []config
	refs    map[config]ref
	rngs    []*rand.Rand // one per client
	nextOp  atomic.Int64
}

func setupSimHandoff(o options) (runner, error) {
	scale := o.scale
	if scale == 0 {
		scale = pinnedScale
	}
	var cs []config
	for _, k := range simHandoffKernels {
		for _, s := range coherence.Kinds() {
			cs = append(cs, config{bench: k, procs: bench.CatalogDefaultProcs, scale: scale, scheme: s})
		}
	}
	refs, err := loadRefs(o.root, cs)
	if err != nil {
		return nil, err
	}
	// Warm up each kernel once at a small scale, so the first timed op
	// does not pay the process's heap growth and first-touch costs.
	for _, k := range simHandoffKernels {
		info, _ := bench.Get(k)
		cfg := bench.Config{Procs: bench.CatalogDefaultProcs, Scale: scale * warmFactor}
		if res, _, _, err := bench.RunPhased(info, cfg, nil); err != nil || !res.Verified() {
			return nil, fmt.Errorf("warm-up %s failed: %v", k, err)
		}
	}
	s := &simHandoff{configs: cs, refs: refs}
	for tid := 0; tid < clients; tid++ {
		s.rngs = append(s.rngs, rand.New(rand.NewPCG(o.seed, 0x51+uint64(tid))))
	}
	return s, nil
}

func (s *simHandoff) close() {}

// checkSim compares one run against its expected answer.
func checkSim(c config, res bench.Result, err error, want ref) error {
	switch {
	case err != nil:
		return fmt.Errorf("%s: %v", c, err)
	case !res.Verified():
		return fmt.Errorf("%s: check %#x, want %#x", c, res.Check, res.WantCheck)
	case res.Cycles != want.cycles:
		return fmt.Errorf("%s: %d cycles, pinned %d", c, res.Cycles, want.cycles)
	case res.Stats != want.stats:
		return fmt.Errorf("%s: stats %+v, pinned %+v", c, res.Stats, want.stats)
	}
	return nil
}

// simAcc gathers a traced window's per-layer figures.
type simAcc struct {
	mu           sync.Mutex
	stats        statsSum
	kernelDur    map[string]time.Duration
	kernelCycles map[string]int64
}

// measure runs two clients side by side, each a closed loop of whole
// passes over the nine configurations in its own seeded order, until d
// has elapsed. Every pass holds the same work, so rates do not depend on
// where the time ran out. A client whose last pass ends first keeps
// running ops, uncounted, until the other's does too: the load stays the
// same to the end of every counted pass. With both cores busy with the
// benchmark's own work, the runs are much steadier than with one client
// on a shared host.
func (s *simHandoff) measure(d time.Duration, tr *tracer) *window {
	c := newCollector()
	acc := &simAcc{kernelDur: map[string]time.Duration{}, kernelCycles: map[string]int64{}}
	start := c.begin()
	var counting atomic.Int32
	counting.Store(clients)
	var wg sync.WaitGroup
	for tid := 0; tid < clients; tid++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := s.rngs[tid]
			for {
				passStart := time.Now()
				for _, i := range rng.Perm(len(s.configs)) {
					s.op(s.configs[i], tid, c, tr, acc)
				}
				c.clientPass(tid, passStart)
				if time.Since(start) >= d {
					break
				}
			}
			counting.Add(-1)
			for counting.Load() > 0 {
				s.op(s.configs[rng.IntN(len(s.configs))], tid, nil, nil, nil)
			}
		}()
	}
	wg.Wait()
	w := c.end()
	if tr != nil {
		for k, d := range acc.kernelDur {
			w.layer["bench.kernel_ns_per_sim_cycle."+k] = float64(d) / float64(acc.kernelCycles[k])
		}
		acc.stats.report(w.layer, w.passes)
	}
	return w
}

// op runs one configuration and checks it. A nil collector runs it
// uncounted and unchecked, only to keep the load on.
func (s *simHandoff) op(cfg config, tid int, c *collector, tr *tracer, acc *simAcc) {
	info, _ := bench.Get(cfg.bench)
	bc := cfg.benchConfig()
	if c == nil {
		bench.RunPhased(info, bc, nil)
		return
	}
	op := s.nextOp.Add(1)
	cs := tr.start("client.op", 0, op, tid)
	var reg *metrics.Registry
	var kd time.Duration
	t0 := time.Now()
	rp := tr.start("bench.RunPhased", cs.id, op, tid)
	if tr != nil {
		reg = metrics.NewRegistry()
		bc.Metrics = reg
		bc.OnPhase = func(name string) func() {
			ps := tr.start("bench."+name, rp.id, op, tid)
			return func() {
				if dur := ps.end(); name == "kernel" {
					kd = dur
				}
			}
		}
	}
	res, _, _, err := bench.RunPhased(info, bc, nil)
	rp.end()
	lat := time.Since(t0)
	failure := checkSim(cfg, res, err, s.refs[cfg])
	smp := sample{key: cfg.String(), client: tid, lat: lat, ops: 1}
	if failure == nil {
		smp.cycles = res.Cycles
	}
	c.add(smp, failure)
	cs.end()
	if failure == nil && tr != nil {
		acc.mu.Lock()
		defer acc.mu.Unlock()
		acc.kernelDur[cfg.bench] += kd
		acc.kernelCycles[cfg.bench] += res.Cycles
		acc.stats.add(res.Cycles, res.Stats, reg.Snapshot().Flat())
	}
}
