// Package trace is the simulation's event recorder: a low-overhead,
// allocation-conscious ring buffer of typed events stamped with the
// deterministic simulation clock.
//
// The paper's evaluation (§5, Tables 2–4) explains cycle counts in terms of
// mechanism events — who migrated, which reference missed, which
// invalidations were sent — but aggregate counters cannot localize a
// regression to a site or a page. The recorder captures every migration,
// return stub, future spawn/touch, cache hit/miss/fill, line invalidation
// and acknowledgement round trip as a typed Event stamped with
// (processor, simulated clock, thread, site, page/line).
//
// Because every event is emitted by the virtual-time-active thread between
// scheduler hand-offs, the event sequence is a pure function of the program
// and configuration: the same run always yields the same bytes. That makes
// the trace itself a regression artifact — Digest condenses it into a
// stable hash plus per-kind counts that tests can pin.
//
// Recording is off by default (a nil *Recorder); every emit point in the
// machine, runtime, cache and coherence layers guards on the pointer, so
// disabled runs pay one predictable branch and Table 2 numbers are
// unchanged.
package trace

// Kind is the type tag of an event.
type Kind uint8

// Event kinds. The order is part of the digest format — append, never
// reorder.
const (
	// EvMigrate is a forward migration: P is the source processor, Arg
	// the destination, T the departure time and Dur the transit (network
	// + receive + acquire) time. Site is the dereference site that
	// triggered it, or -1 for an explicit MigrateTo.
	EvMigrate Kind = iota
	// EvReturn is a return-stub migration (same stamps as EvMigrate).
	EvReturn
	// EvFutureSpawn is a futurecall; Arg is the child's thread id.
	EvFutureSpawn
	// EvFutureTouch is a touch; Dur is the time spent blocked (zero when
	// the future was already resolved).
	EvFutureTouch
	// EvCacheHit is a cacheable remote reference satisfied locally.
	EvCacheHit
	// EvCacheMiss is a remote reference that paid a protocol round trip;
	// Dur is the full miss latency.
	EvCacheMiss
	// EvLineFetch is a 64-byte line transfer; Arg is the home processor
	// and Dur the request/service/reply round trip.
	EvLineFetch
	// EvLineInval is an invalidation message processed by a sharer
	// (global scheme): P is the sharer, Arg the mask of lines actually
	// cleared (zero means the message was spurious).
	EvLineInval
	// EvInvalAck is the acknowledgement wait paid by a releasing
	// processor after sending invalidations for one page.
	EvInvalAck
	// EvStampCheck is a bilateral timestamp round trip; Dur is the
	// request/service/reply latency.
	EvStampCheck
	// EvFullFlush is a local-knowledge whole-cache invalidation on a
	// migration receive; Arg is the number of lines flushed.
	EvFullFlush
	// EvHomeFlush is the refined local-knowledge return invalidation;
	// Arg is the number of valid lines it discarded.
	EvHomeFlush
	// EvMarkStale is the bilateral acquire (mark all cached pages
	// stale); Arg is the number of pages marked.
	EvMarkStale
	// EvResidency is a completed residency span: the thread occupied
	// processor P from T to T+Dur between two migrations (or spawn and
	// finish).
	EvResidency
	// EvThreadStart is a thread registering with the scheduler.
	EvThreadStart
	// EvThreadEnd is a thread leaving the scheduler.
	EvThreadEnd

	numKinds = int(EvThreadEnd) + 1
)

// NumKinds is the number of event kinds (the length of Digest.Counts).
const NumKinds = numKinds

var kindNames = [numKinds]string{
	"migrate", "return", "spawn", "touch", "hit", "miss", "fetch",
	"inval", "ack", "stamp", "flush", "homeflush", "stale",
	"resident", "start", "end",
}

// String names the kind as it appears in digests and profiles.
func (k Kind) String() string {
	if int(k) < numKinds {
		return kindNames[k]
	}
	return "?"
}

// Event is one simulation event. The struct is fixed-size and free of
// pointers so the ring buffer holds events by value and recording never
// allocates after the buffer reaches capacity.
type Event struct {
	T    int64  // simulated clock at the event's start
	Dur  int64  // duration in cycles; zero for instantaneous events
	Arg  int64  // kind-specific argument (see the Kind docs)
	Page uint32 // global page id, zero when not applicable
	Site int32  // interned site id (SiteName), -1 when not applicable
	Tid  int32  // logical thread id, -1 when no thread is involved
	P    int16  // processor, -1 when no processor is involved
	Line int16  // line index within Page, -1 when not applicable
	Kind Kind
}

// DefaultCapacity bounds the ring buffer when New is given no capacity:
// 2^18 events (≈12 MB) keeps full kernels of the default-scale benchmarks
// without drops.
const DefaultCapacity = 1 << 18

// chunkSize is the number of events in one ring chunk (192 KB). The ring
// is a list of fixed-size chunks so it can be allocated piecemeal as it
// fills, without ever copying itself to grow.
const chunkSize = 4096

// Recorder collects events into a bounded ring. A nil *Recorder is the
// disabled state: emit points must guard on it.
//
// The ring is a sequence of chunkSize-event chunks, each allocated the
// first time the write cursor reaches it and kept across Reset, so a
// recorder never holds more than cap events (cap × 48 B) and a kernel
// phase reuses the memory its build phase filled.
//
// A Recorder is single-writer and unlocked. During a run exactly one
// control flow writes it: every Emit and SiteID comes from the thread
// the scheduler has made active, and hand-offs between threads order
// those calls. Readers (Events, Digest, AccessDigest, Profile, the Chrome
// export, Len, Dropped, Sites) may only run once the run that writes the
// recorder has returned, never alongside it.
type Recorder struct {
	cap     int
	chunks  [][]Event // chunk i holds ring slots [i*chunkSize, i*chunkSize+len)
	next    int       // ring write cursor, in [0, cap)
	size    int       // events held, at most cap
	dropped int64

	sites   []string
	siteIDs map[string]int32
}

// New returns a recorder bounded at capacity events (DefaultCapacity when
// capacity <= 0). Storage is allocated one chunk at a time as events
// arrive, up to capacity × 48 B; once full the ring wraps, dropping the
// oldest events.
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{cap: capacity, siteIDs: map[string]int32{}}
}

// Emit appends one event. When the ring is full the oldest event is
// overwritten and counted as dropped.
func (r *Recorder) Emit(ev Event) {
	c := r.next / chunkSize
	if c == len(r.chunks) {
		// First use of this chunk; the last one is cut short when cap is
		// not a multiple of chunkSize.
		r.chunks = append(r.chunks, make([]Event, min(chunkSize, r.cap-c*chunkSize)))
	}
	r.chunks[c][r.next%chunkSize] = ev
	if r.next++; r.next == r.cap {
		r.next = 0
	}
	if r.size < r.cap {
		r.size++
	} else {
		r.dropped++
	}
}

// all yields the held events oldest-first, reading the ring in place.
func (r *Recorder) all(yield func(Event) bool) {
	slot := 0
	if r.size == r.cap {
		slot = r.next
	}
	for range r.size {
		if !yield(r.chunks[slot/chunkSize][slot%chunkSize]) {
			return
		}
		if slot++; slot == r.cap {
			slot = 0
		}
	}
}

// SiteID interns a site name, assigning ids in first-registration order
// (which the deterministic scheduler makes stable run to run).
func (r *Recorder) SiteID(name string) int32 {
	if id, ok := r.siteIDs[name]; ok {
		return id
	}
	id := int32(len(r.sites))
	r.sites = append(r.sites, name)
	r.siteIDs[name] = id
	return id
}

// SiteName resolves an interned site id; out-of-range ids (including the
// -1 sentinel) resolve to the empty string.
func (r *Recorder) SiteName(id int32) string {
	if id < 0 || int(id) >= len(r.sites) {
		return ""
	}
	return r.sites[id]
}

// Sites returns the interned site names in id order.
func (r *Recorder) Sites() []string {
	return append([]string(nil), r.sites...)
}

// Events returns a copy of the recorded events, oldest-first.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, r.size)
	for ev := range r.all {
		out = append(out, ev)
	}
	return out
}

// Len returns the number of events currently held.
func (r *Recorder) Len() int { return r.size }

// Dropped returns the number of events lost to ring wrap-around.
func (r *Recorder) Dropped() int64 { return r.dropped }

// Reset discards recorded events (and the drop count) but keeps interned
// site names and the ring's chunks, so a benchmark's kernel phase can be
// traced on its own after an instrumented build phase, in the memory the
// build phase already allocated.
func (r *Recorder) Reset() {
	r.next = 0
	r.size = 0
	r.dropped = 0
}
