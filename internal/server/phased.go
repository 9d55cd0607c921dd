package server

import (
	"fmt"
	"sync"

	"repro/internal/analysis/phases"
	"repro/internal/bench"
	"repro/internal/bench/record"
	"repro/internal/coherence"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/trace"
)

// This file is the server's phase-granular memoization: the second LRU
// layer under the all-or-nothing result cache. The result cache can only
// reuse a run whose *entire* configuration matches; the phase cache
// reuses the build-phase boundary — heap images plus host-side build
// state — across every configuration that agrees on (benchmark, machine
// size, problem scale), whatever the coherence scheme or mechanism mode.
//
// Admitting a benchmark into this cache is a static decision, not a
// heuristic one: the benchmark's mini-C kernel is sliced into its phase
// plan and only a certified invariant build chain yields a key. The
// chain digest itself is part of the key, so editing a kernel reshuffles
// its chain and orphans any stale state rather than serving it.

// buildChains memoizes the static decision per benchmark name: the build
// chain digest, or "" when the benchmark is not phase-cacheable.
var buildChains sync.Map // string -> string

// buildChainFor returns the benchmark's certified build-chain digest.
// It is "" (not cacheable) when the benchmark has no kernel source or no
// build/kernel split, or when the slicer cannot stand behind the build
// phase.
func buildChainFor(name string) (string, bool) {
	if v, ok := buildChains.Load(name); ok {
		chain := v.(string)
		return chain, chain != ""
	}
	chain := ""
	if info, ok := bench.Get(name); ok && info.Source != "" && info.Phased != nil {
		if plan, err := phases.ComputeSource(info.Source, phases.Options{IncludeBuild: true}); err == nil {
			if c, ok := plan.BuildChain(); ok {
				chain = c
			}
		}
	}
	buildChains.Store(name, chain)
	return chain, chain != ""
}

// phaseKey is the phase-cache key: the scheme-invariant prefix identity.
// Scheme and mode are deliberately absent — that is the entire point —
// and so is Baseline, which Reusable refuses separately.
func phaseKey(req RunRequest, chain string) string {
	return fmt.Sprintf("%s|P=%d|scale=%d|chain=%s", req.Benchmark, req.Procs, req.Scale, chain)
}

// defaultExecutePhased runs the benchmark for real: a fresh machine +
// runtime per job (nothing shared with concurrent runs), the trace
// recorder and metrics registry attached so the record carries the
// digest that makes memoization verifiable. Phase-cacheable requests
// probe the phase cache first and restore the memoized build boundary on
// a hit; the returned disposition feeds the X-Oldend-Phase-Cache header.
// An unverified run — wrong answer versus the sequential reference — is
// an executor error, never a cacheable result.
//
// When sp is sampled, the run records into its own simulation recorder,
// attached to sp once the run returns, so the span tree bottoms out in
// real cache-miss events, and each bench phase ("build", "kernel", ...)
// becomes a child span. The recorder's capacity matches what
// RunPhasedRecorded would allocate on its own, so TraceDigest is
// byte-identical sampled or not.
func (s *Server) defaultExecutePhased(req RunRequest, sp *obs.Span) (record.RunRecord, string, error) {
	info, ok := bench.Get(req.Benchmark)
	if !ok {
		return record.RunRecord{}, "none", fmt.Errorf("unknown benchmark %q", req.Benchmark)
	}
	scheme, err := coherence.Parse(req.Scheme)
	if err != nil {
		return record.RunRecord{}, "none", err
	}
	mode, err := rt.ParseMode(req.Mode)
	if err != nil {
		return record.RunRecord{}, "none", err
	}
	cfg := bench.Config{
		Baseline: req.Baseline,
		Procs:    req.Procs,
		Scale:    req.Scale,
		Scheme:   scheme,
		Mode:     mode,
	}
	var simRec *trace.Recorder
	if sp.Sampled() {
		sp.SetAttr("benchmark", req.Benchmark)
		sp.SetAttr("scheme", req.Scheme)
		if req.Mode != "" {
			sp.SetAttr("mode", req.Mode)
		}
		simRec = trace.New(s.cfg.TraceCapacity)
		cfg.Trace = simRec
		cfg.OnPhase = func(name string) func() {
			ph := sp.StartChild("phase:" + name)
			return ph.End
		}
	}

	key := ""
	var bs *bench.BuildState
	if !req.Baseline {
		if chain, ok := buildChainFor(req.Benchmark); ok {
			key = phaseKey(req, chain)
			bs, _ = s.phases.get(key)
		}
	}
	res, rec, nbs, reused, err := bench.RunPhasedRecorded(info, cfg, bs)
	if simRec != nil {
		// The recorder is single-writer and unlocked: it reaches the span
		// tree, and through it /debug/trace and /debug/requests, only
		// once the run that writes it has returned.
		sp.AttachSim(simRec)
		if d := simRec.Dropped(); d > 0 {
			s.traceDropped.Add(d)
			sp.SetAttrInt("sim_dropped", d)
		}
	}
	if err != nil {
		return rec, "none", err
	}
	if !res.Verified() {
		return rec, "none", fmt.Errorf("%s run failed verification: %#x != %#x", req.Benchmark, res.Check, res.WantCheck)
	}
	phase := "none"
	if key != "" && nbs != nil {
		if reused {
			phase = "hit"
			s.phaseHits.Inc()
		} else {
			phase = "miss"
			s.phaseMisses.Inc()
			s.phases.put(key, nbs)
		}
	}
	return rec, phase, nil
}
