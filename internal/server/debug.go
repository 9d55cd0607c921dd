package server

import (
	"net/http"
	"net/http/pprof"
	"strings"

	"repro/internal/obs"
)

// This file is oldend's live introspection surface. /debug/requests
// answers "what is the server doing right now and what was slow lately"
// without any external tooling; /debug/trace/<id> turns one sampled
// request into a merged Chrome trace — service spans over wall-clock
// time and the run's simulated cache events over simulated cycles in
// one file — or a JSON span tree for programmatic consumers.

// handleDebugRequests serves the introspection ring: in-flight requests
// first, then the last N finished ones, slowest first. Sampled entries
// carry the dominant span name and depth, so a glance answers "where
// did the time go" before anyone opens a trace.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"in_flight": s.cfg.Tracer.InFlight(),
		"requests":  s.cfg.Tracer.Requests(),
	})
}

// handleDebugTrace serves one retained trace by id:
//
//	GET /debug/trace/<32-hex id>              merged Chrome trace_event JSON
//	GET /debug/trace/<32-hex id>?format=tree  nested span-tree JSON
//
// Only sampled requests are retained (the TraceRing newest), so a 404
// means the id was never sampled or has been evicted — the access log
// line with that trace_id still exists either way.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	idStr := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
	if _, err := obs.ParseTraceID(idStr); err != nil {
		writeError(w, http.StatusBadRequest, "bad trace id: "+err.Error())
		return
	}
	root, ok := s.cfg.Tracer.Lookup(idStr)
	if !ok {
		writeError(w, http.StatusNotFound, "trace not retained (unsampled or evicted)")
		return
	}
	if r.URL.Query().Get("format") == "tree" {
		writeJSON(w, http.StatusOK, obs.Tree(root))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := obs.WriteChrome(w, root); err != nil {
		// Headers are gone; all we can do is cut the body short.
		return
	}
}

// mountPprof exposes net/http/pprof through the main mux's route
// helper. It is opt-in (Config.EnablePprof) because the profiles reveal
// host internals a benchmark service does not otherwise leak.
func mountPprof(route func(pattern string, h http.HandlerFunc)) {
	route("/debug/pprof/", pprof.Index)
	route("/debug/pprof/cmdline", pprof.Cmdline)
	route("/debug/pprof/profile", pprof.Profile)
	route("/debug/pprof/symbol", pprof.Symbol)
	route("/debug/pprof/trace", pprof.Trace)
}
