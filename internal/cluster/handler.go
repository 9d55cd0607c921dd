package cluster

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// reqCtx is the router's per-request state: the sampled span (nil
// otherwise) and the fields the access log and request ring report.
type reqCtx struct {
	sp        *obs.Span
	traceID   string
	key       string
	benchmark string
	shard     string
	cache     string
	shed      string
	// requests counts the matched route's responses by status code;
	// nil until a route matches.
	requests *metrics.CodeCounters
}

type reqCtxKey struct{}

func requestCtx(r *http.Request) *reqCtx {
	if rc, ok := r.Context().Value(reqCtxKey{}).(*reqCtx); ok {
		return rc
	}
	return &reqCtx{}
}

// statusWriter captures what the handler wrote, for logging/metrics.
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

// Handler returns the router's HTTP surface — deliberately the same
// shape as one oldend, so clients point at the cluster without changing
// anything:
//
//	POST /run             routed to the key's owning shard (probe → proxy → retry)
//	POST /batch           sharded sub-batches, answers merged in request order
//	POST /analyze         any reachable replica (stateless)
//	GET  /benchmarks      any reachable replica (identical on all by contract)
//	GET  /metrics         the ROUTER's own registry (per-shard counters)
//	GET  /debug/requests  fan-out: every replica's view plus the router's, tagged by shard
//	GET  /debug/trace/id  fan-out: served by whichever replica retained the trace
//	GET  /healthz         router liveness
//	GET  /readyz          ready while at least one replica is ready (per-shard detail in the body)
//
// Requests are counted in oldenrouter_requests_total by matched route
// ("other" when none matches) and status.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		reqs := rt.cfg.Metrics.CodeCounters("oldenrouter_requests_total", metrics.L("path", pattern))
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			requestCtx(r).requests = reqs
			h(w, r)
		})
	}
	route("/run", rt.handleRun)
	route("/batch", rt.handleBatch)
	route("/analyze", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			writeError(w, http.StatusBadRequest, "read body: "+err.Error())
			return
		}
		rt.proxyAny(w, r, http.MethodPost, "/analyze", body)
	})
	route("/benchmarks", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		rt.proxyAny(w, r, http.MethodGet, "/benchmarks", nil)
	})
	route("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		w.Header().Set("Content-Type", metrics.ContentType)
		io.WriteString(w, rt.cfg.Metrics.Snapshot().Prometheus())
	})
	route("/debug/requests", rt.handleDebugRequests)
	route("/debug/trace/", rt.handleDebugTrace)
	route("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	route("/readyz", rt.handleReadyz)
	return rt.instrument(mux)
}

// instrument mirrors the server's wrapper: traceparent parsing, the
// sampling decision, response trace-id headers, per-path/status request
// counting, the finished-request ring and the JSON access log.
func (rt *Router) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := rt.cfg.Now()
		parent, _ := obs.ParseTraceparent(r.Header.Get("traceparent"))
		sp := rt.cfg.Tracer.StartRequest(r.Method, r.URL.Path, parent)
		var traceID string
		switch {
		case sp.Sampled():
			traceID = sp.TraceID().String()
		case parent.Valid():
			traceID = parent.TraceID.String()
		default:
			traceID = rt.cfg.Tracer.NewTraceID().String()
		}
		w.Header().Set("X-Request-Id", traceID)
		w.Header().Set("X-Oldend-Trace-Id", traceID)

		rc := &reqCtx{sp: sp, traceID: traceID}
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), reqCtxKey{}, rc)))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		durUS := rt.cfg.Now().Sub(start).Microseconds()
		if rc.requests == nil {
			rc.requests = rt.otherRequests
		}
		rc.requests.Inc(sw.status)
		rt.cfg.Tracer.FinishRequest(sp, obs.ReqInfo{
			TraceID:    traceID,
			Method:     r.Method,
			Path:       r.URL.Path,
			Status:     sw.status,
			Start:      start,
			DurUS:      durUS,
			Benchmark:  rc.benchmark,
			Cache:      rc.cache,
			ShedReason: rc.shed,
		})
		if rt.log != nil {
			rec := slog.NewRecord(start, slog.LevelInfo, "request", 0)
			rec.AddAttrs(
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.status),
				slog.Int64("bytes", sw.bytes),
				slog.Int64("dur_us", durUS),
				slog.String("trace_id", traceID),
			)
			if rc.benchmark != "" {
				rec.AddAttrs(slog.String("benchmark", rc.benchmark))
			}
			if rc.key != "" {
				rec.AddAttrs(slog.String("key", rc.key))
			}
			if rc.shard != "" {
				rec.AddAttrs(slog.String("shard", rc.shard))
			}
			if rc.cache != "" {
				rec.AddAttrs(slog.String("cache", rc.cache))
			}
			if rc.shed != "" {
				rec.AddAttrs(slog.String("shed_reason", rc.shed))
			}
			_ = rt.log.Handler().Handle(context.Background(), rec)
		}
	})
}

// handleReadyz asks every replica for readiness concurrently (bounded by
// a short timeout, outside the connection budgets so a saturated shard
// cannot wedge health checks). The router is ready while at least one
// replica is — a partial cluster degrades capacity, not availability.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	type shardStatus struct {
		name   string
		status string
	}
	results := make([]shardStatus, len(rt.names))
	ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i, name := range rt.names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, name+"/readyz", nil)
			if err != nil {
				results[i] = shardStatus{name, "error"}
				return
			}
			resp, err := rt.cfg.Client.Do(req)
			if err != nil {
				results[i] = shardStatus{name, "down"}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				results[i] = shardStatus{name, "ready"}
			} else {
				results[i] = shardStatus{name, "not_ready"}
			}
		}(i, name)
	}
	wg.Wait()
	shards := make(map[string]string, len(results))
	ready := 0
	for _, s := range results {
		shards[s.name] = s.status
		if s.status == "ready" {
			ready++
		}
	}
	body := map[string]any{"shards": shards, "ready_shards": ready}
	if ready == 0 {
		body["status"] = "no_ready_shards"
		w.Header().Set("Retry-After", rt.retryAfterSeconds())
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	body["status"] = "ready"
	writeJSON(w, http.StatusOK, body)
}

// handleDebugRequests merges every replica's /debug/requests view with
// the router's own, tagging each replica's entries with its shard —
// cluster-mode tracing stays one curl, no per-shard spelunking.
func (rt *Router) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	type shardView struct {
		body []byte
		err  error
	}
	views := make([]shardView, len(rt.names))
	ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i, name := range rt.names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, name+"/debug/requests", nil)
			if err != nil {
				views[i] = shardView{err: err}
				return
			}
			resp, err := rt.cfg.Client.Do(req)
			if err != nil {
				views[i] = shardView{err: err}
				return
			}
			b, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
			resp.Body.Close()
			views[i] = shardView{body: b, err: err}
		}(i, name)
	}
	wg.Wait()
	shards := make(map[string]json.RawMessage, len(rt.names))
	for i, name := range rt.names {
		if views[i].err != nil {
			b, _ := json.Marshal(map[string]string{"error": views[i].err.Error()})
			shards[name] = b
			continue
		}
		shards[name] = json.RawMessage(views[i].body)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"router": map[string]any{
			"in_flight": rt.cfg.Tracer.InFlight(),
			"requests":  rt.cfg.Tracer.Requests(),
		},
		"shards": shards,
	})
}

// handleDebugTrace fans a trace-id lookup out to the replicas — the
// trace lives wherever the sampled request executed, which the id alone
// does not reveal — and serves the first hit with X-Oldend-Shard naming
// the replica that retained it. When no replica holds the id, the
// router's own retained tree (span tree of the routed request itself)
// answers; only then 404.
func (rt *Router) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	idStr := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
	if _, err := obs.ParseTraceID(idStr); err != nil {
		writeError(w, http.StatusBadRequest, "bad trace id: "+err.Error())
		return
	}
	path := "/debug/trace/" + idStr
	if q := r.URL.RawQuery; q != "" {
		path += "?" + q
	}
	for _, name := range rt.names {
		sh := rt.shards[name]
		if !rt.alive(sh) {
			continue
		}
		ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
		rep, err := rt.exchange(ctx, sh, http.MethodGet, path, nil, nil)
		cancel()
		if err == nil && rep.status == http.StatusOK {
			serveReply(w, rep, sh.name)
			return
		}
	}
	if root, ok := rt.cfg.Tracer.Lookup(idStr); ok {
		if r.URL.Query().Get("format") == "tree" {
			writeJSON(w, http.StatusOK, obs.Tree(root))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = obs.WriteChrome(w, root)
		return
	}
	writeError(w, http.StatusNotFound, "trace not retained on any shard (unsampled or evicted)")
}
