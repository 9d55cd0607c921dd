package main

import (
	"strings"

	"repro/internal/machine"
	"repro/internal/metrics"
)

// splitFlat splits a flattened metric id (metrics.Snapshot.Flat) into
// its name, its label set and the histogram part after the labels
// (":sum", ":count", ":le=N", or "" for a counter or gauge). Label
// values may themselves contain ':' (shard URLs).
func splitFlat(id string) (name, labels, part string) {
	if i := strings.IndexByte(id, '{'); i >= 0 {
		j := strings.LastIndexByte(id, '}')
		return id[:i], id[i : j+1], id[j+1:]
	}
	if i := strings.IndexByte(id, ':'); i >= 0 {
		return id[:i], "", id[i:]
	}
	return id, "", ""
}

// labelValue extracts one label's value from a rendered label set.
func labelValue(labels, key string) string {
	_, rest, ok := strings.Cut(labels, key+`="`)
	if !ok {
		return ""
	}
	v, _, _ := strings.Cut(rest, `"`)
	return v
}

// sumFlat sums every series of the named metric with the given part.
func sumFlat(flat map[string]int64, name, part string) int64 {
	var n int64
	for id, v := range flat {
		if nm, _, p := splitFlat(id); nm == name && p == part {
			n += v
		}
	}
	return n
}

// addFlat accumulates src into dst.
func addFlat(dst, src map[string]int64) {
	for k, v := range src {
		dst[k] += v
	}
}

// diffFlat is the counter and histogram growth of reg since before.
func diffFlat(reg *metrics.Registry, before metrics.Snapshot) map[string]int64 {
	return reg.Snapshot().Diff(before).Flat()
}

// statsSum totals the simulator's own event counts over a window's
// verified runs: the machine's statistics and the runtime's registry.
type statsSum struct {
	machine.StatsSnapshot
	cycles                                  int64
	hits, misses, fills, msgs, invals, acks int64
}

// add counts one verified run: its makespan, its statistics and its
// flattened metrics registry.
func (s *statsSum) add(cycles int64, st machine.StatsSnapshot, flat map[string]int64) {
	s.cycles += cycles
	s.Migrations += st.Migrations
	s.Returns += st.Returns
	s.Futures += st.Futures
	s.Touches += st.Touches
	s.RemoteReads += st.RemoteReads
	s.RemoteWrites += st.RemoteWrites
	s.Misses += st.Misses
	s.hits += sumFlat(flat, "olden_cache_hits_total", "")
	s.misses += sumFlat(flat, "olden_cache_misses_total", "")
	s.fills += sumFlat(flat, "olden_line_fills_total", "")
	s.msgs += sumFlat(flat, "olden_protocol_messages_total", "")
	s.invals += sumFlat(flat, "olden_lines_invalidated_total", "")
	s.acks += sumFlat(flat, "olden_ack_round_trips_total", "")
}

// report writes the totals per pass, so they are exact and equal on
// every run of the same code.
func (s *statsSum) report(layer map[string]float64, passes int) {
	p := float64(passes)
	layer["machine.sim_cycles"] = float64(s.cycles) / p
	layer["machine.migrations"] = float64(s.Migrations) / p
	layer["machine.returns"] = float64(s.Returns) / p
	layer["machine.futures_spawned"] = float64(s.Futures) / p
	layer["machine.futures_touched"] = float64(s.Touches) / p
	layer["machine.remote_refs"] = float64(s.RemoteRefs()) / p
	layer["machine.cache_misses"] = float64(s.Misses) / p
	layer["rt.cache_hits"] = float64(s.hits) / p
	layer["rt.cache_lookups"] = float64(s.hits+s.misses) / p
	layer["rt.cache_hit_ratio"] = ratio(float64(s.hits), float64(s.hits+s.misses))
	layer["rt.line_fills"] = float64(s.fills) / p
	layer["coherence.protocol_messages"] = float64(s.msgs) / p
	layer["coherence.lines_invalidated"] = float64(s.invals) / p
	layer["coherence.ack_round_trips"] = float64(s.acks) / p
}

// serverLayer reports the oldend replicas' figures from the growth of
// their registries over a window.
func serverLayer(layer map[string]float64, flat map[string]int64) {
	mean := func(name string) float64 {
		return ratio(float64(sumFlat(flat, name, ":sum")), float64(sumFlat(flat, name, ":count")))
	}
	hits := sumFlat(flat, "oldend_cache_hits_total", "")
	lookups := hits + sumFlat(flat, "oldend_cache_misses_total", "")
	phits := sumFlat(flat, "oldend_phase_cache_hits_total", "")
	plookups := phits + sumFlat(flat, "oldend_phase_cache_misses_total", "")
	layer["server.queue_wait_us_mean"] = mean("oldend_queue_wait_us")
	layer["server.run_us_mean"] = mean("oldend_run_us")
	layer["server.result_cache_lookups"] = float64(lookups)
	layer["server.result_cache_hit_ratio"] = ratio(float64(hits), float64(lookups))
	layer["server.phase_cache_lookups"] = float64(plookups)
	layer["server.phase_cache_hit_ratio"] = ratio(float64(phits), float64(plookups))
	layer["server.shed"] = float64(sumFlat(flat, "oldend_shed_total", ""))
	layer["server.deadline_expired"] = float64(sumFlat(flat, "oldend_deadline_expired_total", ""))
}

// routerLayer reports the router's figures from the growth of its
// registry over a window.
func routerLayer(layer map[string]float64, flat map[string]int64) {
	perShard := map[string]int64{}
	var proxied int64
	for id, v := range flat {
		if name, labels, _ := splitFlat(id); name == "oldenrouter_proxied_total" {
			perShard[labelValue(labels, "shard")] += v
			proxied += v
		}
	}
	var most int64
	for _, n := range perShard {
		most = max(most, n)
	}
	layer["cluster.shard_exchange_us_mean"] = ratio(
		float64(sumFlat(flat, "oldenrouter_shard_latency_us", ":sum")),
		float64(sumFlat(flat, "oldenrouter_shard_latency_us", ":count")))
	layer["cluster.proxied"] = float64(proxied)
	layer["cluster.proxy_retries"] = float64(sumFlat(flat, "oldenrouter_proxy_retries_total", ""))
	layer["cluster.shard_share_max"] = ratio(float64(most), float64(proxied))
}
