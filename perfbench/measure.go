package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// sample is one client request: a simulation run on sim-handoff, a
// /batch request on serve-sweep-cold, a /run request on serve-hot-routed.
type sample struct {
	key    string        // configuration identity, for per-configuration figures
	at     time.Duration // completion, from the window's start
	lat    time.Duration
	client int   // the client that sent it
	ops    int   // ops the request attempted (batch items, else 1)
	failed int   // ops among them that failed
	cycles int64 // simulated cycles of the verified results
}

// window is one measurement interval.
type window struct {
	wall      time.Duration
	samples   []sample
	attempted int64    // ops attempted
	failed    int64    // ops failed
	failures  []string // the first few failure descriptions

	// intervals are the sub-intervals the end-to-end figures are taken
	// over: one per pass on sim-handoff and serve-sweep-cold, one per
	// second otherwise.
	intervals []interval
	// passes counts complete passes over the workload's configuration
	// set (sim-handoff and serve-sweep-cold measure whole passes only).
	passes int
	// layer holds the workload's own per-layer figures for this window.
	layer map[string]float64

	memBefore, memAfter runtime.MemStats
	// rss holds the peak RSS of each sampling period, in MiB.
	rss []rssSample
}

// interval is a stretch of a window, as offsets from its start.
type interval struct {
	from, to time.Duration
	client   int // the only client whose requests count, or -1 for all
}

// seconds is the interval's share of the window's time: the clients
// run their own passes side by side, so each has 1/clients of the time.
func (iv interval) seconds() float64 {
	s := (iv.to - iv.from).Seconds()
	if iv.client >= 0 {
		s /= clients
	}
	return s
}

// rssSample is the peak RSS since the previous sample.
type rssSample struct {
	at time.Duration
	mb float64
}

// rssPeriod is how often the peak-RSS mark is read and restarted.
const rssPeriod = 100 * time.Millisecond

// collector gathers samples from concurrent clients.
type collector struct {
	mu    sync.Mutex
	start time.Time
	win   *window

	stopRSS, rssDone chan struct{}
}

func newCollector() *collector { return &collector{win: &window{layer: map[string]float64{}}} }

// add records one request and the failures of its ops.
func (c *collector) add(s sample, errs ...error) {
	s.at = time.Since(c.start)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, err := range errs {
		if err == nil {
			continue
		}
		s.failed++
		if len(c.win.failures) < 10 {
			c.win.failures = append(c.win.failures, err.Error())
		}
	}
	c.win.failed += int64(s.failed)
	c.win.attempted += int64(s.ops)
	c.win.samples = append(c.win.samples, s)
}

// begin and end bracket the measured interval: wall time, the
// runtime's allocation counters and the peak RSS. begin first returns
// the garbage of whatever ran before to the OS, so it does not count
// against the window.
func (c *collector) begin() time.Time {
	debug.FreeOSMemory()
	runtime.ReadMemStats(&c.win.memBefore)
	c.start = time.Now()
	resetPeakRSS()
	c.stopRSS, c.rssDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(c.rssDone)
		t := time.NewTicker(rssPeriod)
		defer t.Stop()
		for {
			select {
			case <-c.stopRSS:
				return
			case <-t.C:
				c.sampleRSS()
			}
		}
	}()
	return c.start
}

// sampleRSS records the peak RSS since the last sample and restarts
// the kernel's mark.
func (c *collector) sampleRSS() {
	mb := peakRSSMB()
	resetPeakRSS()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.win.rss = append(c.win.rss, rssSample{at: time.Since(c.start), mb: mb})
}

// pass records one complete pass of every client, from passStart to now.
func (c *collector) pass(passStart time.Time) { c.clientPass(-1, passStart) }

// clientPass records one complete pass of one client, from passStart to
// now, on a window whose clients run their passes independently.
func (c *collector) clientPass(client int, passStart time.Time) {
	c.sampleRSS()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.win.intervals = append(c.win.intervals, interval{passStart.Sub(c.start), time.Since(c.start), client})
	c.win.passes++
}

// end closes the window. Without passes it is cut into whole seconds.
func (c *collector) end() *window {
	close(c.stopRSS)
	<-c.rssDone
	c.sampleRSS()
	w := c.win
	w.wall = time.Since(c.start)
	runtime.ReadMemStats(&w.memAfter)
	if len(w.intervals) == 0 {
		n := max(1, int(w.wall/time.Second))
		step := w.wall / time.Duration(n)
		for i := 0; i < n; i++ {
			w.intervals = append(w.intervals, interval{time.Duration(i) * step, time.Duration(i+1) * step, -1})
		}
		w.intervals[n-1].to = w.wall
	}
	return w
}

// okOps counts the ops that succeeded and verified.
func (w *window) okOps() int64 { return w.attempted - w.failed }

// measuredSeconds is the time covered by the window's intervals.
func (w *window) measuredSeconds() float64 {
	s := 0.0
	for _, iv := range w.intervals {
		s += iv.seconds()
	}
	return s
}

// endToEnd computes every end-to-end metric from the set-up timings and
// an untraced window. Rates, the p99 and the peak RSS are taken per
// interval and reported as the median over the intervals, so a short
// disturbance from outside the benchmark moves them little; a rate over
// one client's pass counts every client as running at that rate. The p50 is
// taken per configuration and reported as the geomean over
// configurations: the configurations differ in cost by orders of
// magnitude, and a pooled median would jump between them with the
// seeded order.
func endToEnd(setups []time.Duration, w *window) map[string]metric {
	var rates, mcycles, p99s, rss []float64
	for _, iv := range w.intervals {
		peak := 0.0
		for _, r := range w.rss {
			if r.at >= iv.from && r.at <= iv.to+rssPeriod {
				peak = max(peak, r.mb)
			}
		}
		rss = append(rss, peak)
		secs := iv.seconds()
		var ok, cycles int64
		var lats []float64
		for _, s := range w.samples {
			if s.at < iv.from || s.at > iv.to || (iv.client >= 0 && s.client != iv.client) {
				continue
			}
			ok += int64(s.ops - s.failed)
			cycles += s.cycles
			lats = append(lats, float64(s.lat)/float64(time.Millisecond))
		}
		rates = append(rates, float64(ok)/secs)
		mcycles = append(mcycles, float64(cycles)/secs/1e6)
		p99s = append(p99s, percentile(lats, 99))
	}
	// Per configuration: the median latency, and the median latency per
	// simulated cycle.
	lat, perCycle := map[string][]float64{}, map[string][]float64{}
	for _, s := range w.samples {
		lat[s.key] = append(lat[s.key], float64(s.lat)/float64(time.Millisecond))
		if s.failed == 0 && s.cycles > 0 {
			perCycle[s.key] = append(perCycle[s.key], float64(s.lat)/float64(s.cycles))
		}
	}
	var p50s, nsPerCycle []float64
	for k, v := range lat {
		p50s = append(p50s, median(v))
		if pc := perCycle[k]; len(pc) > 0 {
			nsPerCycle = append(nsPerCycle, median(pc))
		}
	}
	var setupS []float64
	for _, d := range setups {
		setupS = append(setupS, d.Seconds())
	}
	return map[string]metric{
		"setup_s":                  {median(setupS), "s"},
		"ops_per_s":                {median(rates), "ops/s"},
		"sim_mcycles_per_s":        {median(mcycles), "Mcycles/s"},
		"ns_per_sim_cycle_geomean": {geomean(nsPerCycle), "ns"},
		"latency_ms_p50":           {geomean(p50s), "ms"},
		"latency_ms_p99":           {median(p99s), "ms"},
		"peak_rss_mb":              {median(rss), "MB"},
	}
}

// perLayer computes every per-layer metric: the workload's own figures
// from the traced window, host figures from the untraced window, and
// span-derived timings. Layers a workload does not reach report 0.
func perLayer(plain, traced *window, tr *tracer) map[string]metric {
	out := map[string]metric{}
	for _, lm := range perLayerMetrics {
		out[lm.name] = metric{0, lm.unit}
	}
	set := func(name string, v float64) {
		m, ok := out[name]
		if !ok {
			panic("perfbench: unlisted per-layer metric " + name)
		}
		m.Value = v
		out[name] = m
	}
	for name, v := range traced.layer {
		set(name, v)
	}
	ops := float64(plain.attempted)
	set("host.allocs_per_op", float64(plain.memAfter.Mallocs-plain.memBefore.Mallocs)/ops)
	set("host.alloc_bytes_per_op", float64(plain.memAfter.TotalAlloc-plain.memBefore.TotalAlloc)/ops)
	set("host.gc_cycles", float64(plain.memAfter.NumGC-plain.memBefore.NumGC))
	set("client.ops", float64(traced.attempted))
	untracedRate := float64(plain.okOps()) / plain.measuredSeconds()
	tracedRate := float64(traced.okOps()) / traced.measuredSeconds()
	set("obs.tracing_overhead_pct", 100*(untracedRate-tracedRate)/untracedRate)
	set("obs.spans", float64(tr.total()))

	us := func(name string) float64 { return tr.meanDur(name).Seconds() * 1e6 }
	// A bench phase is timed by the benchmark's own OnPhase hook on
	// sim-handoff and read back from oldend's phase spans when served.
	phaseMS := func(phase string) float64 {
		n := tr.count("bench."+phase) + tr.count("oldend:phase:"+phase)
		sum := tr.sumDur("bench."+phase) + tr.sumDur("oldend:phase:"+phase)
		return ratio(sum.Seconds()*1e3, float64(n))
	}
	for _, phase := range []string{"build", "restore_build", "kernel", "run"} {
		set("bench."+phase+"_ms_mean", phaseMS(phase))
	}
	set("server.handler_us_mean", us("server.handler"))
	if n := tr.count("client.op"); n > 0 {
		// The client's own cost: its op time not covered by the
		// program's outermost entry point.
		entry := "server.handler"
		switch {
		case tr.count("cluster.handler") > 0:
			entry = "cluster.handler"
		case tr.count("bench.RunPhased") > 0:
			entry = "bench.RunPhased"
		}
		set("client.overhead_us_mean", (tr.sumDur("client.op")-tr.sumDur(entry)).Seconds()*1e6/float64(n))
	}
	if n := tr.count("cluster.handler"); n > 0 {
		set("cluster.router_self_us_mean", (tr.sumDur("cluster.handler")-tr.sumDur("server.handler")).Seconds()*1e6/float64(n))
	}
	return out
}

// layerMetric names one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// perLayerMetrics is every per-layer metric a traced run prints, in
// BENCHMARK.json's order.
var perLayerMetrics = []layerMetric{
	{"bench.build_ms_mean", "ms"},
	{"bench.restore_build_ms_mean", "ms"},
	{"bench.kernel_ms_mean", "ms"},
	{"bench.run_ms_mean", "ms"},
	{"bench.kernel_ns_per_sim_cycle.bisort", "ns"},
	{"bench.kernel_ns_per_sim_cycle.voronoi", "ns"},
	{"bench.kernel_ns_per_sim_cycle.perimeter", "ns"},
	{"bench.kernel_ns_per_sim_cycle.treeadd", "ns"},
	{"bench.kernel_ns_per_sim_cycle.tsp", "ns"},
	{"bench.kernel_ns_per_sim_cycle.mst", "ns"},
	{"bench.kernel_ns_per_sim_cycle.em3d", "ns"},
	{"machine.sim_cycles", "count"},
	{"machine.migrations", "count"},
	{"machine.returns", "count"},
	{"machine.futures_spawned", "count"},
	{"machine.futures_touched", "count"},
	{"machine.remote_refs", "count"},
	{"machine.cache_misses", "count"},
	{"rt.cache_hits", "count"},
	{"rt.cache_lookups", "count"},
	{"rt.cache_hit_ratio", "ratio"},
	{"rt.line_fills", "count"},
	{"coherence.protocol_messages", "count"},
	{"coherence.lines_invalidated", "count"},
	{"coherence.ack_round_trips", "count"},
	{"host.allocs_per_op", "count"},
	{"host.alloc_bytes_per_op", "bytes"},
	{"host.gc_cycles", "count"},
	{"server.handler_us_mean", "us"},
	{"server.queue_wait_us_mean", "us"},
	{"server.run_us_mean", "us"},
	{"server.result_cache_lookups", "count"},
	{"server.result_cache_hit_ratio", "ratio"},
	{"server.phase_cache_lookups", "count"},
	{"server.phase_cache_hit_ratio", "ratio"},
	{"server.shed", "count"},
	{"server.deadline_expired", "count"},
	{"server.response_bytes_mean", "bytes"},
	{"cluster.router_self_us_mean", "us"},
	{"cluster.shard_exchange_us_mean", "us"},
	{"cluster.proxied", "count"},
	{"cluster.proxy_retries", "count"},
	{"cluster.shard_share_max", "ratio"},
	{"client.ops", "count"},
	{"client.overhead_us_mean", "us"},
	{"obs.tracing_overhead_pct", "%"},
	{"obs.spans", "count"},
}

// median is the middle value, or the mean of the middle two.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile; 0 for no samples.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

// ratio is num/den, 0 over an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM). Where the
// kernel refuses, the peak keeps covering the whole process.
func resetPeakRSS() {
	if f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0); err == nil {
		f.WriteString("5")
		f.Close()
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) since the last
// resetPeakRSS, in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
