package server

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/bench"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// AccessLogger emits one structured JSON line per request through
// log/slog, so access logs, metrics and traces join on trace_id. The
// JSON handler locks internally; one logger serves every request
// goroutine.
type AccessLogger struct {
	h slog.Handler
}

// NewAccessLogger logs one JSON object per request to w. The record's
// time is the request's start time (not the emit time), so log lines
// sort by arrival and match what the span tree says.
func NewAccessLogger(w io.Writer) *AccessLogger {
	return &AccessLogger{h: slog.NewJSONHandler(w, nil)}
}

// logExtra carries the run-specific fields the /run handler and workers
// contribute to the request's access-log line.
type logExtra struct {
	Benchmark   string
	Key         string
	Cache       string
	PhaseCache  string
	ShedReason  string
	QueueWaitUS int64
	RunUS       int64
}

// accessLine is one structured access-log record.
type accessLine struct {
	Start   time.Time
	Method  string
	Path    string
	Status  int
	Bytes   int64
	DurUS   int64
	Remote  string
	TraceID string
	Sampled bool
	logExtra
}

func (l *AccessLogger) emit(line accessLine) {
	if l == nil {
		return
	}
	rec := slog.NewRecord(line.Start, slog.LevelInfo, "request", 0)
	rec.AddAttrs(
		slog.String("method", line.Method),
		slog.String("path", line.Path),
		slog.Int("status", line.Status),
		slog.Int64("bytes", line.Bytes),
		slog.Int64("dur_us", line.DurUS),
	)
	if line.Remote != "" {
		rec.AddAttrs(slog.String("remote", line.Remote))
	}
	if line.TraceID != "" {
		rec.AddAttrs(slog.String("trace_id", line.TraceID))
	}
	if line.Sampled {
		rec.AddAttrs(slog.Bool("sampled", true))
	}
	if line.Benchmark != "" {
		rec.AddAttrs(slog.String("benchmark", line.Benchmark))
	}
	if line.Key != "" {
		rec.AddAttrs(slog.String("key", line.Key))
	}
	if line.Cache != "" {
		rec.AddAttrs(slog.String("cache", line.Cache))
	}
	if line.PhaseCache != "" {
		rec.AddAttrs(slog.String("phase_cache", line.PhaseCache))
	}
	if line.ShedReason != "" {
		rec.AddAttrs(slog.String("shed_reason", line.ShedReason))
	}
	if line.QueueWaitUS != 0 {
		rec.AddAttrs(slog.Int64("queue_wait_us", line.QueueWaitUS))
	}
	if line.RunUS != 0 {
		rec.AddAttrs(slog.Int64("run_us", line.RunUS))
	}
	_ = l.h.Handle(context.Background(), rec) // an unloggable request must not fail the request
}

// statusWriter captures the status code and byte count a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// reqCtx is the per-request state instrument threads through the context:
// the log fields handlers fill in, the request's root span (nil when
// unsampled) and the trace id every response advertises.
type reqCtx struct {
	extra   logExtra
	sp      *obs.Span
	traceID string
	// requests counts the matched route's responses by status code;
	// nil until a route matches.
	requests *metrics.CodeCounters
}

type reqCtxKey struct{}

// requestCtx returns the request's reqCtx (a throwaway one when the
// handler runs outside instrument, as in direct tests).
func requestCtx(r *http.Request) *reqCtx {
	if rc, ok := r.Context().Value(reqCtxKey{}).(*reqCtx); ok {
		return rc
	}
	return &reqCtx{}
}

// Handler returns the service's HTTP surface:
//
//	POST /run             execute (or memo-serve) one benchmark run
//	POST /batch           execute a set of runs, deduped against both caches
//	POST /analyze         static effect/cost analysis with budget admission
//	GET  /benchmarks      the shared machine-readable catalog
//	GET  /metrics         Prometheus exposition of the server registry
//	GET  /debug/requests  recent + in-flight requests, slowest first
//	GET  /debug/trace/<id>  one sampled request's merged Chrome trace
//	GET  /healthz         liveness (200 while the process serves)
//	GET  /readyz          readiness (503 once drain begins)
//
// Every request is access-logged (when a logger is configured), counted
// in oldend_requests_total by matched route ("other" when none matches)
// and status, and answered with an X-Oldend-Trace-Id header — on shed
// and error paths too — so any response can be quoted back at the trace
// endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		reqs := s.cfg.Metrics.CodeCounters("oldend_requests_total", metrics.L("path", pattern))
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			requestCtx(r).requests = reqs
			h(w, r)
		})
	}
	route("/run", s.handleRun)
	route("/batch", s.handleBatch)
	route("/analyze", s.handleAnalyze)
	route("/cache/probe", s.handleCacheProbe)
	route("/benchmarks", s.handleBenchmarks)
	route("/metrics", s.handleMetrics)
	route("/debug/requests", s.handleDebugRequests)
	route("/debug/trace/", s.handleDebugTrace)
	if s.cfg.EnablePprof {
		mountPprof(route)
	}
	route("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	route("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			w.Header().Set("Retry-After", s.retryAfterSeconds())
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	return s.instrument(mux)
}

// instrument wraps the mux with tracing, access logging and request
// accounting: it parses the incoming traceparent, makes the sampling
// decision, stamps the trace id on the response before the handler can
// write headers, and finishes the request's span tree afterwards.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := s.cfg.Now()
		parent, _ := obs.ParseTraceparent(r.Header.Get("traceparent"))
		sp := s.cfg.Tracer.StartRequest(r.Method, r.URL.Path, parent)
		var traceID string
		switch {
		case sp.Sampled():
			traceID = sp.TraceID().String()
		case parent.Valid():
			traceID = parent.TraceID.String()
		default:
			traceID = s.cfg.Tracer.NewTraceID().String()
		}
		// Every response — including 429/504 sheds — carries the id a
		// client can quote in a bug report.
		w.Header().Set("X-Request-Id", traceID)
		w.Header().Set("X-Oldend-Trace-Id", traceID)
		if s.cfg.ShardName != "" {
			w.Header().Set("X-Oldend-Shard", s.cfg.ShardName)
		}

		rc := &reqCtx{sp: sp, traceID: traceID}
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), reqCtxKey{}, rc)))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		durUS := s.cfg.Now().Sub(start).Microseconds()
		if rc.requests == nil {
			rc.requests = s.otherRequests
		}
		rc.requests.Inc(sw.status)
		s.cfg.Tracer.FinishRequest(sp, obs.ReqInfo{
			TraceID:    traceID,
			Method:     r.Method,
			Path:       r.URL.Path,
			Status:     sw.status,
			Start:      start,
			DurUS:      durUS,
			Benchmark:  rc.extra.Benchmark,
			Cache:      rc.extra.Cache,
			ShedReason: rc.extra.ShedReason,
		})
		s.cfg.AccessLog.emit(accessLine{
			Start:    start,
			Method:   r.Method,
			Path:     r.URL.Path,
			Status:   sw.status,
			Bytes:    sw.bytes,
			DurUS:    durUS,
			Remote:   r.RemoteAddr,
			TraceID:  traceID,
			Sampled:  sp.Sampled(),
			logExtra: rc.extra,
		})
	})
}

// handleRun admits, waits and responds for one run request. Phases:
// parse → cache probe → admission → queue wait → execution, with the
// request deadline checked at every boundary; each phase is a span on
// sampled requests.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req RunRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	req, err := normalize(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := req.Key()
	rc := requestCtx(r)
	rc.extra.Benchmark = req.Benchmark
	rc.extra.Key = key

	// Phase: cache probe. A hit returns the memoized bytes — verifiably
	// identical to a fresh run by determinism — unless the request asked
	// to bypass or cross-check.
	probe := rc.sp.StartChild("cache_probe")
	probe.SetAttr("key", key)
	if !req.NoCache && !req.Verify {
		if e, ok := s.cache.get(key); ok {
			s.cacheHits.Inc()
			rc.extra.Cache = "hit"
			probe.SetAttr("cache", "hit")
			probe.End()
			w.Header().Set("X-Oldend-Cache", "hit")
			w.Header().Set("X-Oldend-Trace-Digest", e.digest)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			w.Write(e.body)
			return
		}
		s.cacheMisses.Inc()
	}
	cacheState := req.Disposition()
	rc.extra.Cache = cacheState
	probe.SetAttr("cache", cacheState)
	probe.End()

	// Phase: admission. Deadline starts covering queue wait + run.
	ctx, cancel := context.WithTimeout(r.Context(), s.clampDeadline(req.DeadlineMS))
	defer cancel()
	j := &job{
		req:      req,
		key:      key,
		cache:    cacheState,
		ctx:      ctx,
		enqueued: s.cfg.Now(),
		done:     make(chan result, 1),
		sp:       rc.sp,
	}
	if rc.sp.Sampled() {
		j.exemplar = rc.traceID
	}
	// The queue_wait span must exist before admit: a worker may dequeue
	// (and close it) before admit even returns.
	j.qspan = rc.sp.StartChild("queue_wait")
	switch s.admit(j) {
	case admitShed:
		j.qspan.EndAborted()
		s.shed.Inc()
		rc.extra.ShedReason = "queue_full"
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		writeError(w, http.StatusTooManyRequests,
			"admission queue full; retry after backoff")
		return
	case admitDraining:
		j.qspan.EndAborted()
		rc.extra.ShedReason = "draining"
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}

	// Phase: wait for a worker. If the deadline fires first the handler
	// answers 504 and the worker discards the stale job when it surfaces;
	// the dangling queue_wait span is flushed (aborted) at finish, so the
	// 504's span tree is still complete.
	var res result
	select {
	case res = <-j.done:
	case <-ctx.Done():
		select {
		case res = <-j.done: // result arrived in the same instant; serve it
		default:
			rc.extra.QueueWaitUS = s.cfg.Now().Sub(j.enqueued).Microseconds()
			rc.extra.ShedReason = "deadline"
			writeError(w, http.StatusGatewayTimeout, "deadline exceeded: "+ctx.Err().Error())
			return
		}
	}
	rc.extra.Cache = res.cache
	rc.extra.PhaseCache = res.phase
	rc.extra.ShedReason = res.shed
	rc.extra.QueueWaitUS = res.queueWaitUS
	rc.extra.RunUS = res.runUS
	if res.status != http.StatusOK {
		writeError(w, res.status, res.errMsg)
		return
	}
	w.Header().Set("X-Oldend-Cache", res.cache)
	if res.phase != "" {
		w.Header().Set("X-Oldend-Phase-Cache", res.phase)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(res.body)
}

// handleCacheProbe is the peer-cache lookup a cluster router (or any
// replica acting as a client) uses to ask "do you already hold this
// result?" without triggering execution:
//
//	GET /cache/probe?key=<canonical cache key>
//
// A hit serves the memoized bytes exactly as a /run cache hit would —
// X-Oldend-Cache: hit, the trace digest header, the identical body — so
// a router can treat a probe hit and a routed hit interchangeably. A
// miss is a 404 and nothing else: probes are deliberately lightweight
// (no queueing, no simulation) so a router can afford to ask several
// owners about a hot key before committing an execution anywhere.
func (s *Server) handleCacheProbe(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	key := r.URL.Query().Get("key")
	if key == "" {
		writeError(w, http.StatusBadRequest, "missing key (the canonical run-config cache key)")
		return
	}
	rc := requestCtx(r)
	rc.extra.Key = key
	e, ok := s.cache.get(key)
	if !ok {
		s.probeMisses.Inc()
		rc.extra.Cache = "probe-miss"
		writeError(w, http.StatusNotFound, "not cached")
		return
	}
	s.probeHits.Inc()
	rc.extra.Cache = "probe-hit"
	w.Header().Set("X-Oldend-Cache", "hit")
	w.Header().Set("X-Oldend-Trace-Digest", e.digest)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(e.body)
}

// handleBenchmarks serves the shared catalog — the same bytes
// `oldenbench -list` prints, so clients and CLIs cannot drift.
func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	b, err := bench.CatalogJSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// handleMetrics serves the registry in the Prometheus text exposition
// format with the exporter's Content-Type.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", metrics.ContentType)
	io.WriteString(w, s.cfg.Metrics.Snapshot().Prometheus())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
