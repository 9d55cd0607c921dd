package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/server"
)

// Config tunes a Router. Replicas is the only required field.
type Config struct {
	// Replicas is the static replica list: base URLs (http://host:port)
	// of the oldend processes the ring shards over.
	Replicas []string
	// VNodes is the virtual-node count per replica (0 = DefaultVNodes).
	VNodes int
	// ProbeOwners is R, the hot-key replication width: cacheable /run
	// requests rotate across the key's first R owners, and the router
	// probes those owners' caches (GET /cache/probe) before committing
	// an execution anywhere. 1 (the default) routes every key to its
	// primary owner only — maximum aggregate cache capacity, no
	// replication; raise it for skewed mixes where a few hot keys
	// deserve to be served from more than one shard.
	ProbeOwners int
	// VerifyEvery is K: every Kth routed execution whose primary answer
	// was a 200 is duplicated — synchronously — to a second replica, and
	// the two bodies plus trace digests must be byte-identical. 0
	// disables. This is the correctness gate determinism buys the
	// cluster: any two replicas asked the same question must agree, so a
	// mismatch is a real bug (nondeterminism, version skew, corruption),
	// counted in oldenrouter_verify_mismatch_total and logged.
	VerifyEvery int
	// MaxConnsPerReplica bounds concurrent requests (proxies, probes,
	// verify duplicates) the router holds open to one replica
	// (default 64). Excess requests wait; the bound is what keeps one
	// slow shard from absorbing the router's whole file-descriptor
	// budget.
	MaxConnsPerReplica int
	// RetryAfter is the backoff hint attached to 503 responses when no
	// owner of a key is reachable (default 1s).
	RetryAfter time.Duration
	// DownCooldown is how long a replica stays marked down after a
	// connection failure before the router tries it again (default 2s).
	DownCooldown time.Duration
	// ProbeTimeout caps one peer cache probe (default 2s) — probes are
	// an optimization and must never stall the routed path.
	ProbeTimeout time.Duration
	// Metrics receives the router's counters; a fresh registry when nil.
	Metrics *metrics.Registry
	// Tracer owns request sampling; when nil one is built from
	// SampleEvery/DebugRequests, as in the server.
	Tracer *obs.Tracer
	// SampleEvery is head sampling when Tracer is nil (same semantics as
	// the server's flag of the same name).
	SampleEvery int
	// DebugRequests bounds the router's finished-request ring.
	DebugRequests int
	// AccessLog, when non-nil, receives one JSON line per request.
	AccessLog io.Writer
	// Client substitutes the outbound HTTP client (tests); nil builds
	// one with no global timeout (per-request contexts bound everything).
	Client *http.Client
	// Now substitutes the wall clock (tests).
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.ProbeOwners <= 0 {
		c.ProbeOwners = 1
	}
	if c.MaxConnsPerReplica <= 0 {
		c.MaxConnsPerReplica = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.DownCooldown <= 0 {
		c.DownCooldown = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Tracer == nil {
		c.Tracer = obs.New(obs.Config{
			SampleEvery: c.SampleEvery,
			RequestRing: c.DebugRequests,
			Now:         c.Now,
		})
	}
	return c
}

// shard is the router's per-replica state: the connection budget and the
// failure-cooldown clock.
type shard struct {
	name   string
	budget chan struct{}
	// latency and proxied are the shard's exchange metrics, resolved
	// once so a proxied request skips the registry lookup.
	latency *metrics.Histogram
	proxied *metrics.CodeCounters
	// downUntil is the unix-nano instant before which the shard is
	// skipped on the first routing pass. Connection failures set it;
	// any successful exchange clears it.
	downUntil atomic.Int64
}

// Router shards oldend traffic across replicas by the canonical
// run-config cache key. Create with NewRouter, mount Handler.
type Router struct {
	cfg    Config
	ring   *Ring
	shards map[string]*shard
	names  []string // ring order-independent replica list (config order)
	log    *slog.Logger

	rr      atomic.Uint64 // round-robin cursor over a key's first R owners
	verifyN atomic.Uint64 // every-Kth counter for cross-replica verify

	retries        *metrics.Counter
	unroutable     *metrics.Counter
	verifyMatch    *metrics.Counter
	verifyMismatch *metrics.Counter
	verifyErr      *metrics.Counter
	// otherRequests counts responses to paths no route matched.
	otherRequests *metrics.CodeCounters
}

// NewRouter builds the router and its ring.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	ring, err := NewRing(cfg.Replicas, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:    cfg,
		ring:   ring,
		shards: make(map[string]*shard, len(cfg.Replicas)),
		names:  ring.Replicas(),
	}
	if cfg.AccessLog != nil {
		rt.log = slog.New(slog.NewJSONHandler(cfg.AccessLog, nil))
	}
	for _, name := range rt.names {
		rt.shards[name] = &shard{
			name:    name,
			budget:  make(chan struct{}, cfg.MaxConnsPerReplica),
			latency: cfg.Metrics.Histogram("oldenrouter_shard_latency_us", metrics.L("shard", name)),
			proxied: cfg.Metrics.CodeCounters("oldenrouter_proxied_total", metrics.L("shard", name)),
		}
	}
	m := cfg.Metrics
	m.SetHelp("oldenrouter_requests_total", "Requests answered by the router, by path and status code.")
	m.SetHelp("oldenrouter_proxied_total", "Requests proxied to a replica, by shard and status code.")
	m.SetHelp("oldenrouter_proxy_retries_total", "Proxy attempts retried on the next ring owner after a connection failure.")
	m.SetHelp("oldenrouter_unroutable_total", "Requests answered 503 because no owner of the key was reachable.")
	m.SetHelp("oldenrouter_probe_total", "Peer cache probes issued, by shard and outcome.")
	m.SetHelp("oldenrouter_verify_total", "Cross-replica verify duplicates, by outcome (byte-identity of two replicas' answers).")
	m.SetHelp("oldenrouter_verify_mismatch_total", "Cross-replica verify mismatches: two replicas answered the same key with different bytes. Any nonzero value is a determinism bug.")
	m.SetHelp("oldenrouter_shard_latency_us", "Wall-clock latency of proxied replica exchanges, in microseconds, by shard.")
	m.SetHelp("oldenrouter_replica_down_total", "Connection failures that marked a replica down for the cooldown, by shard.")
	m.SetHelp("oldenrouter_shards", "Replicas in the ring (static).")
	rt.retries = m.Counter("oldenrouter_proxy_retries_total")
	rt.unroutable = m.Counter("oldenrouter_unroutable_total")
	rt.verifyMatch = m.Counter("oldenrouter_verify_total", metrics.L("outcome", "match"))
	rt.verifyMismatch = m.Counter("oldenrouter_verify_mismatch_total")
	rt.verifyErr = m.Counter("oldenrouter_verify_total", metrics.L("outcome", "error"))
	rt.otherRequests = m.CodeCounters("oldenrouter_requests_total", metrics.L("path", "other"))
	m.RegisterFunc("oldenrouter_shards", metrics.KindGauge, func() int64 { return int64(len(rt.names)) })
	return rt, nil
}

// Metrics exposes the router's registry.
func (rt *Router) Metrics() *metrics.Registry { return rt.cfg.Metrics }

// Ring exposes the router's ring (read-only; tests and the readyz
// handler use it).
func (rt *Router) Ring() *Ring { return rt.ring }

// alive reports whether the shard is not inside a failure cooldown.
func (rt *Router) alive(sh *shard) bool {
	return rt.cfg.Now().UnixNano() >= sh.downUntil.Load()
}

func (rt *Router) markDown(sh *shard) {
	sh.downUntil.Store(rt.cfg.Now().Add(rt.cfg.DownCooldown).UnixNano())
	rt.cfg.Metrics.Counter("oldenrouter_replica_down_total", metrics.L("shard", sh.name)).Inc()
}

func (rt *Router) markUp(sh *shard) { sh.downUntil.Store(0) }

// reply is one fully-read replica response: everything the router needs
// to serve, compare or discard it without holding a connection open.
type reply struct {
	status int
	header http.Header
	body   []byte
}

// exchange performs one bounded request against a shard: acquire the
// shard's connection budget (waiting within ctx), send, read the whole
// body, release. A transport error marks the shard down; any HTTP
// response — including 5xx — marks it up, because a replica that answers
// is alive even when it answers badly.
func (rt *Router) exchange(ctx context.Context, sh *shard, method, path string, body []byte, hdr http.Header) (reply, error) {
	select {
	case sh.budget <- struct{}{}:
	case <-ctx.Done():
		return reply{}, ctx.Err()
	}
	defer func() { <-sh.budget }()

	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, sh.name+path, rd)
	if err != nil {
		return reply{}, err
	}
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	start := rt.cfg.Now()
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		rt.markDown(sh)
		return reply{}, err
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, 32<<20))
	resp.Body.Close()
	if err != nil {
		rt.markDown(sh)
		return reply{}, err
	}
	rt.markUp(sh)
	sh.latency.Observe(rt.cfg.Now().Sub(start).Microseconds())
	sh.proxied.Inc(resp.StatusCode)
	return reply{status: resp.StatusCode, header: resp.Header, body: b}, nil
}

// skippedHeaders are response headers the router owns (trace identity is
// stamped before the handler runs) or that do not survive re-framing.
var skippedHeaders = map[string]bool{
	"Connection":        true,
	"Transfer-Encoding": true,
	"Content-Length":    true,
	"Date":              true,
	"X-Request-Id":      true,
	"X-Oldend-Trace-Id": true,
}

// serveReply writes a replica's response through to the client,
// preserving every replica header (X-Oldend-Cache, X-Oldend-Phase-Cache,
// X-Oldend-Trace-Digest, Retry-After, ...) and guaranteeing
// X-Oldend-Shard names the shard that answered even when the replica
// itself was not configured with a shard name.
func serveReply(w http.ResponseWriter, rep reply, shardName string) {
	for k, vs := range rep.header {
		if skippedHeaders[k] {
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	if w.Header().Get("X-Oldend-Shard") == "" {
		w.Header().Set("X-Oldend-Shard", shardName)
	}
	w.WriteHeader(rep.status)
	w.Write(rep.body)
}

// downstreamHeader builds the headers a proxied request carries: the
// original content type plus the trace chain — a fresh traceparent child
// of the router's span when the request is sampled (so the replica's
// span tree hangs off the router's), or the original traceparent
// verbatim when it is not.
func downstreamHeader(r *http.Request, sp *obs.Span) http.Header {
	h := http.Header{}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		h.Set("Content-Type", ct)
	}
	if sp.Sampled() {
		h.Set("traceparent", sp.Context().Traceparent())
	} else if tp := r.Header.Get("traceparent"); tp != "" {
		h.Set("traceparent", tp)
	}
	return h
}

// candidates orders the owners the proxy path will try: the chosen
// target first, then the remaining ring owners in preference order —
// live shards before ones inside a failure cooldown, so a down replica
// costs nothing until its cooldown expires but is still tried as the
// last resort.
func (rt *Router) candidates(owners []string, target string) []*shard {
	ordered := make([]*shard, 0, len(owners))
	ordered = append(ordered, rt.shards[target])
	for _, o := range owners {
		if o != target {
			ordered = append(ordered, rt.shards[o])
		}
	}
	live := make([]*shard, 0, len(ordered))
	var down []*shard
	for _, sh := range ordered {
		if rt.alive(sh) {
			live = append(live, sh)
		} else {
			down = append(down, sh)
		}
	}
	return append(live, down...)
}

// handleRun is the routed execution path:
//
//  1. canonicalize the request with the replicas' own normalization and
//     key function (server.Normalize / server.CacheKey), so the ring
//     hashes exactly the string the replica caches under;
//  2. for cacheable requests with ProbeOwners > 1, probe the key's first
//     R owners' caches and serve the first hit — hot keys end up
//     resident on R shards and any of them can answer;
//  3. otherwise proxy to the round-robin target among those owners
//     (primary owner when R == 1), retrying the next ring owner on
//     connection failure, 503 + Retry-After when every owner is down;
//  4. every Kth successful execution is duplicated to a second replica
//     and the two answers must be byte-identical (verify mode).
func (rt *Router) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	var req server.RunRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	req, err = server.Normalize(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := server.CacheKey(req)
	owners := rt.ring.Owners(key, len(rt.names))
	rc := requestCtx(r)
	rc.key = key
	rc.benchmark = req.Benchmark

	cacheable := !req.NoCache && !req.Verify
	ridx := 0
	nProbe := min(rt.cfg.ProbeOwners, len(owners))
	if cacheable && nProbe > 1 {
		ridx = int(rt.rr.Add(1) % uint64(nProbe))
		// Probe phase: ask the R owners (starting at the rotation point,
		// so probe load spreads too) before executing anywhere.
		for i := 0; i < nProbe; i++ {
			sh := rt.shards[owners[(ridx+i)%nProbe]]
			if !rt.alive(sh) {
				continue
			}
			ps := rc.sp.StartChild("probe:" + sh.name)
			pctx, cancel := context.WithTimeout(r.Context(), rt.cfg.ProbeTimeout)
			rep, err := rt.exchange(pctx, sh, http.MethodGet,
				"/cache/probe?key="+url.QueryEscape(key), nil, downstreamHeader(r, ps))
			cancel()
			outcome := "miss"
			switch {
			case err != nil:
				outcome = "error"
				ps.EndAborted()
			case rep.status == http.StatusOK:
				outcome = "hit"
				ps.End()
			default:
				ps.End()
			}
			rt.cfg.Metrics.Counter("oldenrouter_probe_total",
				metrics.L("shard", sh.name), metrics.L("outcome", outcome)).Inc()
			if outcome == "hit" {
				rc.shard, rc.cache = sh.name, "hit"
				serveReply(w, rep, sh.name)
				return
			}
		}
	}
	target := owners[ridx%len(owners)]

	// Proxy phase with retry-on-next-owner. Safe to retry even after a
	// half-sent request: /run is deterministic and idempotent, the
	// property the whole cluster design leans on.
	hdr := downstreamHeader(r, rc.sp)
	var served bool
	for attempt, sh := range rt.candidates(owners, target) {
		if attempt > 0 {
			rt.retries.Inc()
		}
		ps := rc.sp.StartChild("proxy:" + sh.name)
		rep, err := rt.exchange(r.Context(), sh, http.MethodPost, "/run", body, hdr)
		if err != nil {
			ps.SetAttr("error", err.Error())
			ps.EndAborted()
			if r.Context().Err() != nil {
				break // the client is gone; stop burning replicas
			}
			continue
		}
		ps.SetAttrInt("status", int64(rep.status))
		ps.End()
		rc.shard = sh.name
		rc.cache = rep.header.Get("X-Oldend-Cache")
		if rep.status == http.StatusOK && cacheable && rt.cfg.VerifyEvery > 0 &&
			rt.verifyN.Add(1)%uint64(rt.cfg.VerifyEvery) == 0 {
			rt.verifyAgainstPeer(r, rc.sp, owners, sh.name, body, rep)
		}
		serveReply(w, rep, sh.name)
		served = true
		break
	}
	if !served {
		rt.unroutable.Inc()
		rc.shed = "no_owner_reachable"
		w.Header().Set("Retry-After", rt.retryAfterSeconds())
		writeError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("no reachable replica for key %q (tried %d owners)", key, len(owners)))
	}
}

// verifyAgainstPeer duplicates one already-served execution to the next
// distinct owner and demands byte-identity: same RunRecord bytes, same
// X-Oldend-Trace-Digest. The duplicate runs synchronously (the caller
// already holds the primary answer) so the metrics a smoke script
// scrapes after a sweep are settled. A mismatch serves the primary
// answer regardless — the alarm is the counter and the log line, the
// contract with the client is unchanged.
func (rt *Router) verifyAgainstPeer(r *http.Request, sp *obs.Span, owners []string, primary string, body []byte, prime reply) {
	var peer *shard
	for _, o := range owners {
		if o != primary && rt.alive(rt.shards[o]) {
			peer = rt.shards[o]
			break
		}
	}
	if peer == nil {
		return // single-replica ring or everyone else down: nothing to compare
	}
	vs := sp.StartChild("verify:" + peer.name)
	rep, err := rt.exchange(r.Context(), peer, http.MethodPost, "/run", body, downstreamHeader(r, vs))
	if err != nil || rep.status != http.StatusOK {
		rt.verifyErr.Inc()
		vs.EndAborted()
		return
	}
	primeDigest := prime.header.Get("X-Oldend-Trace-Digest")
	peerDigest := rep.header.Get("X-Oldend-Trace-Digest")
	if bytes.Equal(prime.body, rep.body) && primeDigest == peerDigest {
		rt.verifyMatch.Inc()
		vs.SetAttr("verify", "match")
		vs.End()
		return
	}
	rt.verifyMismatch.Inc()
	vs.SetAttr("verify", "mismatch")
	vs.EndAborted()
	if rt.log != nil {
		rt.log.Error("cross-replica verify mismatch",
			slog.String("primary", primary),
			slog.String("peer", peer.name),
			slog.String("primary_digest", primeDigest),
			slog.String("peer_digest", peerDigest),
			slog.Int("primary_bytes", len(prime.body)),
			slog.Int("peer_bytes", len(rep.body)),
		)
	}
}

// handleBatch shards a /batch body: normalize every run with the
// replicas' own rules, group the valid ones by primary owner, forward
// one sub-batch per shard concurrently, and merge the per-item answers
// back into request order. Invalid items fail 400 item-locally, exactly
// as the replica would have answered; a shard whose whole exchange fails
// (after retrying the next ring owner) yields 503 items.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var breq server.BatchRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&breq); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(breq.Runs) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch (runs is required)")
		return
	}
	items := make([]server.BatchItem, len(breq.Runs))
	groups := map[string][]int{} // primary owner -> original indices
	keys := map[int]string{}
	for i, q := range breq.Runs {
		nq, err := server.Normalize(q)
		if err != nil {
			items[i] = server.BatchItem{Benchmark: q.Benchmark, Status: http.StatusBadRequest, Error: err.Error()}
			continue
		}
		breq.Runs[i] = nq
		key := server.CacheKey(nq)
		keys[i] = key
		owner := rt.ring.Owner(key)
		groups[owner] = append(groups[owner], i)
	}
	hdr := downstreamHeader(r, requestCtx(r).sp)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for owner, idxs := range groups {
		wg.Add(1)
		go func(owner string, idxs []int) {
			defer wg.Done()
			sub := server.BatchRequest{DeadlineMS: breq.DeadlineMS, Runs: make([]server.RunRequest, len(idxs))}
			for j, i := range idxs {
				sub.Runs[j] = breq.Runs[i]
			}
			body, err := json.Marshal(sub)
			if err != nil {
				rt.failBatchItems(items, idxs, &mu, http.StatusInternalServerError, err.Error())
				return
			}
			// Retry chain for the sub-batch: the group's owner first, then
			// the remaining ring owners of the group's first key — any
			// replica computes the same answers, so fallback is safe.
			owners := rt.ring.Owners(keys[idxs[0]], len(rt.names))
			var rep reply
			ok := false
			for attempt, sh := range rt.candidates(owners, owner) {
				if attempt > 0 {
					rt.retries.Inc()
				}
				rep, err = rt.exchange(r.Context(), sh, http.MethodPost, "/batch", body, hdr)
				if err == nil {
					ok = true
					break
				}
				if r.Context().Err() != nil {
					break
				}
			}
			if !ok {
				rt.unroutable.Inc()
				rt.failBatchItems(items, idxs, &mu, http.StatusServiceUnavailable, "no reachable replica for batch group")
				return
			}
			var subItems []server.BatchItem
			if rep.status != http.StatusOK || json.Unmarshal(rep.body, &subItems) != nil || len(subItems) != len(idxs) {
				rt.failBatchItems(items, idxs, &mu, http.StatusBadGateway,
					fmt.Sprintf("replica %s answered batch with status %d", owner, rep.status))
				return
			}
			mu.Lock()
			for j, i := range idxs {
				items[i] = subItems[j]
			}
			mu.Unlock()
		}(owner, idxs)
	}
	wg.Wait()

	retryAfter := false
	cacheHits, phaseHits := 0, 0
	for i := range items {
		switch items[i].Status {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			retryAfter = true
		}
		if items[i].Cache == "hit" || items[i].Cache == "dedup" {
			cacheHits++
		}
		if items[i].PhaseCache == "hit" {
			phaseHits++
		}
	}
	if retryAfter {
		w.Header().Set("Retry-After", rt.retryAfterSeconds())
	}
	w.Header().Set("X-Oldend-Batch",
		fmt.Sprintf("runs=%d cache-hits=%d phase-hits=%d shards=%d", len(items), cacheHits, phaseHits, len(groups)))
	writeJSON(w, http.StatusOK, items)
}

func (rt *Router) failBatchItems(items []server.BatchItem, idxs []int, mu *sync.Mutex, status int, msg string) {
	mu.Lock()
	defer mu.Unlock()
	for _, i := range idxs {
		items[i].Status = status
		items[i].Error = msg
	}
}

// proxyAny forwards a shard-agnostic request (catalog, analyze) to the
// first reachable replica.
func (rt *Router) proxyAny(w http.ResponseWriter, r *http.Request, method, path string, body []byte) {
	hdr := downstreamHeader(r, requestCtx(r).sp)
	for attempt, sh := range rt.candidates(rt.names, rt.names[0]) {
		if attempt > 0 {
			rt.retries.Inc()
		}
		rep, err := rt.exchange(r.Context(), sh, method, path, body, hdr)
		if err != nil {
			if r.Context().Err() != nil {
				break
			}
			continue
		}
		requestCtx(r).shard = sh.name
		serveReply(w, rep, sh.name)
		return
	}
	rt.unroutable.Inc()
	w.Header().Set("Retry-After", rt.retryAfterSeconds())
	writeError(w, http.StatusServiceUnavailable, "no reachable replica")
}

func (rt *Router) retryAfterSeconds() string {
	secs := int64((rt.cfg.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
