package machine

import (
	"iter"

	"repro/internal/trace"
)

// LoopScheduler is the virtual-time event loop. It keeps the same protocol
// and the same (clock, seq) execution order as ChanScheduler — the digest
// battery pins byte-identical traces — but changes what a "thread" is:
// every logical thread runs as a coroutine (iter.Pull) under one dispatcher
// goroutine, so a virtual-time handoff is two stack switches that never
// enter the Go runtime scheduler. The channel scheduler pays a mutex, a
// heap fix, a channel send and two goroutine reschedules (park + wake, each
// with its casgstatus/timer-check overhead) per handoff; the event loop
// pays one heap sift and two coroswitches.
//
// Because the dispatcher and every coroutine execute on one strictly
// serialized control flow, the scheduler needs no mutex and no atomics:
// exactly one of {dispatcher, some thread body} runs at any instant, and
// coroutine switches order all accesses. (Externally scraped values —
// processor clocks, cache page counts — remain atomic in their own
// packages, since metrics scrapes arrive on foreign goroutines.)
//
// Execution order is decided exactly as in ChanScheduler: the running
// entry is held OFF the heap; at each Sync it continues if and only if its
// (clock, seq) key is strictly less than the heap minimum's — the same
// predicate as "still the heap minimum" when it was kept in-heap. A handoff
// otherwise fuses the re-enqueue and the pop: the yielding entry takes the
// minimum's root slot, one sift-down restores the heap, and the displaced
// minimum goes straight to the dispatcher, which resumes it. Since the order
// is strict and total, the minimum of the heap plus the yielding entry is
// the same entry a push followed by a pop would have picked.
type LoopScheduler struct {
	trace *trace.Recorder

	h       loopHeap
	handoff *SchedEntry // the minimum a Sync displaced, for Main to run next
	seq     uint64
	waiting int  // entries parked off-heap (blocked on futures)
	driving bool // a Main dispatcher loop is running

	syncs    int64 // Sync calls
	handoffs int64 // Sync calls that yielded to another entry
}

// NewLoopScheduler returns an empty event-loop scheduler.
func NewLoopScheduler() *LoopScheduler { return &LoopScheduler{} }

// SetTracer attaches the lifecycle-event recorder.
func (s *LoopScheduler) SetTracer(tr *trace.Recorder) { s.trace = tr }

// Register creates and enrolls a new entry with the given clock. The entry
// joins the runnable heap immediately; its body starts when a dispatcher
// first picks it (Go must attach the body before the registering thread
// next yields).
func (s *LoopScheduler) Register(clock int64) *SchedEntry {
	e := &SchedEntry{clock: clock, seq: s.seq, index: -1}
	s.seq++
	s.h.push(e)
	if s.trace != nil {
		s.trace.Emit(trace.Event{
			Kind: trace.EvThreadStart, T: clock,
			Tid: int32(e.seq), P: -1, Site: -1, Line: -1,
		})
	}
	return e
}

// Go wraps body in a coroutine bound to e. The coroutine is primed to its
// first yield point, so no body code runs until the dispatcher resumes it.
func (s *LoopScheduler) Go(e *SchedEntry, body func()) {
	e.next, e.stop = iter.Pull(func(yield func(struct{}) bool) {
		e.yield = yield
		yield(struct{}{}) // wait for the dispatcher's first pick
		body()
	})
	e.next()
}

// Main runs body as e's thread and drives the dispatcher loop: take the
// entry a Sync handed off, or else pop the minimal runnable entry, resume
// its coroutine until it yields (in Sync or Park) or its body returns, and
// repeat. It returns only when every registered thread has exited. An
// empty heap with parked entries remaining means every thread is blocked
// on a future that can never complete — a deadlock in the simulated
// program.
func (s *LoopScheduler) Main(e *SchedEntry, body func()) {
	if s.driving {
		panic("machine: nested Main on one scheduler")
	}
	s.Go(e, body)
	s.driving = true
	defer func() { s.driving = false }()
	for {
		m := s.handoff
		switch {
		case m != nil:
			s.handoff = nil
		case len(s.h) > 0:
			m = s.h.remove(0)
		case s.waiting > 0:
			panic("machine: simulation deadlock — every thread is blocked on a touch")
		default:
			return
		}
		if m.next == nil {
			panic("machine: entry scheduled before Go attached its thread body")
		}
		m.next()
	}
}

// Sync updates e's clock and yields unless e is still the minimal runnable
// entry. The fast path — the running thread advances but stays ahead of
// every waiter — is three comparisons with no locking, no heap traffic and
// no switch. The handoff puts e in the minimum's root slot, sifts once and
// leaves the displaced minimum in s.handoff for Main to resume.
func (s *LoopScheduler) Sync(e *SchedEntry, clock int64) {
	e.clock = clock
	s.syncs++
	if len(s.h) > 0 && !e.less(s.h[0]) {
		s.handoffs++
		s.handoff = s.h.replaceRoot(e)
		e.yield(struct{}{})
	}
}

// SchedCounts are the event loop's deterministic work counts: they depend
// only on the simulated program, never on the host.
type SchedCounts struct {
	Syncs    int64 // Sync calls
	Handoffs int64 // Sync calls that yielded to another entry
}

// Counts returns the scheduler's work counts since it was created. Like
// every other scheduler field they belong to the loop's control flow: read
// them between runs, not while a Main is driving on another goroutine.
func (s *LoopScheduler) Counts() SchedCounts {
	return SchedCounts{Syncs: s.syncs, Handoffs: s.handoffs}
}

// Park removes e from the runnable set (the thread is about to block on a
// future) and yields; the coroutine resumes after a Resume re-enrolls the
// entry and the dispatcher picks it again.
func (s *LoopScheduler) Park(e *SchedEntry) {
	if e.index >= 0 {
		s.h.remove(e.index)
	}
	s.waiting++
	e.parked = true
	e.yield(struct{}{})
}

// Resume re-enrolls a parked entry at the given clock. The resuming thread
// keeps running until its own next Sync — wake-ups happen at deterministic
// protocol points, exactly as in the channel scheduler.
func (s *LoopScheduler) Resume(e *SchedEntry, clock int64) {
	e.clock = clock
	e.parked = false
	s.waiting--
	s.h.push(e)
}

// Exit removes e permanently. The thread's body returns right after, which
// ends its coroutine and hands control back to the dispatcher.
func (s *LoopScheduler) Exit(e *SchedEntry) {
	if s.trace != nil {
		s.trace.Emit(trace.Event{
			Kind: trace.EvThreadEnd, T: e.clock,
			Tid: int32(e.seq), P: -1, Site: -1, Line: -1,
		})
	}
	if e.index >= 0 {
		s.h.remove(e.index)
	}
}

// loopHeap is the event loop's runnable set: a binary min-heap of entries
// ordered by SchedEntry.less, each entry's index field tracking its slot.
// It runs container/heap's sifts on the concrete type, so the handoff path
// pays no interface dispatch, and it adds replaceRoot, the fused
// push-then-pop the handoff needs.
type loopHeap []*SchedEntry

// push adds e to the heap.
func (h *loopHeap) push(e *SchedEntry) {
	e.index = len(*h)
	*h = append(*h, e)
	h.up(e.index)
}

// remove takes the entry at slot i out of the heap and returns it.
func (h *loopHeap) remove(i int) *SchedEntry {
	old := *h
	n := len(old) - 1
	e := old[i]
	if i != n {
		old[i] = old[n]
		if !h.down(i, n) {
			h.up(i)
		}
	}
	old[n] = nil
	*h = old[:n]
	e.index = -1
	return e
}

// replaceRoot puts e in the root slot, restores the heap and returns the
// entry e displaced. The caller guarantees the root is not greater than e,
// so the result is the minimum of the heap plus e.
func (h loopHeap) replaceRoot(e *SchedEntry) *SchedEntry {
	m := h[0]
	m.index = -1
	h[0] = e
	h.down(0, len(h))
	return m
}

func (h loopHeap) up(j int) {
	e := h[j]
	for j > 0 {
		i := (j - 1) / 2 // parent
		p := h[i]
		if !e.less(p) {
			break
		}
		h[j] = p
		p.index = j
		j = i
	}
	h[j] = e
	e.index = j
}

// down sifts the entry at slot i0 toward the leaves within h[:n] and
// reports whether it moved.
func (h loopHeap) down(i0, n int) bool {
	e := h[i0]
	i := i0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].less(h[j]) {
			j = j2 // right child
		}
		c := h[j]
		if !c.less(e) {
			break
		}
		h[i] = c
		c.index = i
		i = j
	}
	h[i] = e
	e.index = i
	return i > i0
}
