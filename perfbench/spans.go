package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// maxSpans caps the spans a traced run keeps for the Chrome file and the
// self-time table; per-name counts and durations cover every span.
const maxSpans = 300_000

// span is one timed interval around a call into a layer.
type span struct {
	id, parent, op int64
	tid            int // client index: the Chrome track the span renders on
	name           string
	start, end     time.Time
}

// nameAgg accumulates every span of one name, kept or dropped.
type nameAgg struct {
	n   int64
	sum time.Duration
}

// tracer is the benchmark's own in-memory span recorder. A nil *tracer
// is the untraced run: starting a span on it reads no clock.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int64
	agg     map[string]*nameAgg

	// handlerSpan links the spans of one op across HTTP hops: a spanKey
	// maps to the span id of the wrapped handler that serves (or served)
	// the op.
	handlerSpan sync.Map
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), agg: map[string]*nameAgg{}}
}

// openSpan is a started span; end records it.
type openSpan struct {
	tr             *tracer
	id, parent, op int64
	tid            int
	name           string
	start          time.Time
}

// start opens a span. On a nil tracer it returns a span whose end is a
// no-op.
func (t *tracer) start(name string, parent, op int64, tid int) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{tr: t, id: t.nextID.Add(1), parent: parent, op: op, tid: tid, name: name, start: time.Now()}
}

// end records the span and returns its duration (0 when untraced).
func (s openSpan) end() time.Duration {
	if s.tr == nil {
		return 0
	}
	now := time.Now()
	s.tr.record(span{id: s.id, parent: s.parent, op: s.op, tid: s.tid, name: s.name, start: s.start, end: now})
	return now.Sub(s.start)
}

func (t *tracer) record(sp span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.agg[sp.name]
	if a == nil {
		a = &nameAgg{}
		t.agg[sp.name] = a
	}
	a.n++
	a.sum += sp.end.Sub(sp.start)
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, sp)
	} else {
		t.dropped++
	}
}

// addTree records a program-side span tree read back from the program's
// own tracer (obs), under parent, naming each span prefix+name.
func (t *tracer) addTree(tt obs.TraceTree, prefix string, parent, op int64, tid int) {
	var walk func(st obs.SpanTree, parent int64)
	walk = func(st obs.SpanTree, parent int64) {
		start := tt.Start.Add(time.Duration(st.StartUS) * time.Microsecond)
		// "proxy:<replica URL>" becomes "proxy": ports differ per run.
		name, _, _ := strings.Cut(st.Name, ":http")
		sp := span{
			id: t.nextID.Add(1), parent: parent, op: op, tid: tid, name: prefix + name,
			start: start, end: start.Add(time.Duration(st.DurUS) * time.Microsecond),
		}
		t.record(sp)
		for _, c := range st.Children {
			walk(c, sp.id)
		}
	}
	walk(tt.Root, parent)
}

func (t *tracer) count(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.agg[name]; a != nil {
		return a.n
	}
	return 0
}

func (t *tracer) sumDur(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.agg[name]; a != nil {
		return a.sum
	}
	return 0
}

func (t *tracer) meanDur(name string) time.Duration {
	if n := t.count(name); n > 0 {
		return t.sumDur(name) / time.Duration(n)
	}
	return 0
}

func (t *tracer) total() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int64(len(t.spans)) + t.dropped
}

// selfRow is one line of the self-time table.
type selfRow struct {
	name       string
	n          int64
	total, own time.Duration
}

// selfTimes computes, per span name, the total duration and the self
// time: each span's duration minus the part of it its children cover.
func (t *tracer) selfTimes() []selfRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int64][]int{}
	for i, sp := range t.spans {
		if sp.parent != 0 {
			kids[sp.parent] = append(kids[sp.parent], i)
		}
	}
	rows := map[string]*selfRow{}
	for _, sp := range t.spans {
		r := rows[sp.name]
		if r == nil {
			r = &selfRow{name: sp.name}
			rows[sp.name] = r
		}
		dur := sp.end.Sub(sp.start)
		r.n++
		r.total += dur
		r.own += dur - covered(sp, t.spans, kids[sp.id])
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].own > out[j].own })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, all []span, kids []int) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := all[k].start, all[k].end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var sum time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			sum += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		sum += cur.b.Sub(cur.a)
	}
	return sum
}

func (t *tracer) printSelfTimes(w io.Writer) {
	rows := t.selfTimes()
	var all time.Duration
	for _, r := range rows {
		all += r.own
	}
	fmt.Fprintf(w, "self time by span (%d spans kept, %d dropped):\n", len(t.spans), t.dropped)
	fmt.Fprintf(w, "  %-36s %9s %12s %12s %7s\n", "span", "count", "mean_us", "self_us", "self%")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-36s %9d %12.1f %12.1f %6.1f%%\n", r.name, r.n,
			float64(r.total.Microseconds())/float64(r.n), float64(r.own.Microseconds())/float64(r.n),
			100*ratio(float64(r.own), float64(all)))
	}
}

// chromeEvent is one trace_event entry.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeMeta struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Args map[string]any `json:"args"`
}

// writeChrome renders the kept spans as one Chrome trace_event file:
// complete events in microseconds from the tracer's epoch, one track
// per client, with span id, parent id and op id as arguments.
func (t *tracer) writeChrome(w io.Writer, meta map[string]string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	args := map[string]any{}
	for k, v := range meta {
		args[k] = v
	}
	first := true
	emit := func(ev any) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		_, err = bw.Write(b)
		return err
	}
	metas := []chromeMeta{
		{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "perfbench"}},
		{Name: "perfbench_provenance", Ph: "M", Pid: 1, Args: args},
	}
	if t.dropped > 0 {
		metas = append(metas, chromeMeta{Name: "trace_dropped", Ph: "M", Pid: 1, Args: map[string]any{"dropped_events": t.dropped}})
	}
	for _, m := range metas {
		if err := emit(m); err != nil {
			return err
		}
	}
	for _, sp := range t.spans {
		if err := emit(chromeEvent{
			Name: sp.name, Ph: "X", Pid: 1, Tid: sp.tid,
			Ts:   sp.start.Sub(t.epoch).Microseconds(),
			Dur:  sp.end.Sub(sp.start).Microseconds(),
			Args: map[string]any{"span_id": sp.id, "parent_id": sp.parent, "op": sp.op},
		}); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(bw, "\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// writeChromeFile writes the Chrome trace and checks it with the
// repository's strict validator.
func (t *tracer) writeChromeFile(path string, meta map[string]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.writeChrome(f, meta); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	f, err = os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = trace.ValidateChrome(f)
	return err
}
