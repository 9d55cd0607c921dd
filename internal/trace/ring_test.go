package trace

import (
	"math/rand"
	"reflect"
	"testing"
)

// ringModel is the reference the chunked ring is checked against: a
// plain slice holding the newest cap events, plus a drop count.
type ringModel struct {
	cap     int
	held    []Event
	dropped int64
}

func (m *ringModel) emit(ev Event) {
	m.held = append(m.held, ev)
	if len(m.held) > m.cap {
		m.held = m.held[1:]
		m.dropped++
	}
}

func (m *ringModel) reset() { m.held, m.dropped = nil, 0 }

// digest is Digest recomputed from the model's plain slice.
func (m *ringModel) digest() Digest {
	d := Digest{Events: int64(len(m.held)), Dropped: m.dropped, Hash: fnvOffset}
	for _, ev := range m.held {
		d.Counts[ev.Kind]++
		d.Hash = HashEvent(d.Hash, ev)
	}
	d.Hash = fnvWord(d.Hash, uint64(d.Dropped))
	return d
}

// accessDigest is AccessDigest recomputed from the model's plain slice.
func (m *ringModel) accessDigest() Digest {
	d := Digest{Dropped: m.dropped}
	for _, ev := range m.held {
		if IsAccessKind(ev.Kind) {
			d.Events++
			d.Counts[ev.Kind]++
			d.Hash += hashAccessEvent(ev)
		}
	}
	d.Hash = fnvWord(d.Hash, uint64(d.Dropped))
	return d
}

// ringEvent derives a distinct, field-varied event from a sequence number.
func ringEvent(seq int64) Event {
	return Event{
		Kind: Kind(seq % int64(NumKinds)),
		T:    seq,
		Dur:  seq % 97,
		Arg:  seq % 5,
		Page: uint32(seq%13) << 12,
		Site: int32(seq%7) - 1,
		Tid:  int32(seq % 11),
		P:    int16(seq % 4),
		Line: int16(seq%64) - 1,
	}
}

// newRing returns an empty recorder of capacity c, with every site id
// ringEvent uses interned (so profile rows have distinct names), and its
// model.
func newRing(c int) (*Recorder, *ringModel) {
	r := New(c)
	for _, name := range []string{"a", "b", "c", "d", "e", "f"} {
		r.SiteID(name)
	}
	return r, &ringModel{cap: c}
}

// checkRing compares every reader of r against the model.
func checkRing(t *testing.T, r *Recorder, m *ringModel, withProfile bool) {
	t.Helper()
	if r.Len() != len(m.held) || r.Dropped() != m.dropped {
		t.Fatalf("cap %d: Len=%d Dropped=%d, model %d/%d", m.cap, r.Len(), r.Dropped(), len(m.held), m.dropped)
	}
	slots := 0
	for _, c := range r.chunks {
		slots += len(c)
	}
	if slots > m.cap {
		t.Fatalf("cap %d: ring allocated %d slots", m.cap, slots)
	}
	got := r.Events()
	if len(got) != len(m.held) {
		t.Fatalf("cap %d: Events has %d events, model %d", m.cap, len(got), len(m.held))
	}
	for i := range got {
		if got[i] != m.held[i] {
			t.Fatalf("cap %d: event %d = %+v, model %+v", m.cap, i, got[i], m.held[i])
		}
	}
	if d, want := r.Digest(), m.digest(); d != want {
		t.Fatalf("cap %d: Digest %s, model %s", m.cap, d, want)
	}
	if d, want := r.AccessDigest(), m.accessDigest(); d != want {
		t.Fatalf("cap %d: AccessDigest %s, model %s", m.cap, d, want)
	}
	if !withProfile {
		return
	}
	// The reference profile aggregates the model's events from a ring
	// large enough never to wrap, with the model's drop count.
	ref := New(len(m.held) + 1)
	ref.sites = r.sites
	for _, ev := range m.held {
		ref.Emit(ev)
	}
	ref.dropped = m.dropped
	if p, want := r.Profile(), ref.Profile(); !reflect.DeepEqual(p, want) {
		t.Fatalf("cap %d: Profile differs from the model's", m.cap)
	}
}

// ringCapacities straddle the chunk boundary and include the default.
var ringCapacities = []int{1, chunkSize - 1, chunkSize, chunkSize + 1, 3*chunkSize + 1234, DefaultCapacity}

// TestRingMatchesModel drives the chunked ring through seeded bursts of
// 0–3×cap emissions with Resets in between and checks every reader
// against the plain-slice model after each burst.
func TestRingMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range ringCapacities {
		r, m := newRing(c)
		var seq int64
		bursts := []int{0, 1, c - 1, c, c + 1, 3 * c, rng.Intn(3*c + 1), rng.Intn(3*c + 1)}
		for i, n := range bursts {
			if i%2 == 1 {
				r.Reset()
				m.reset()
			}
			for j := 0; j < n; j++ {
				ev := ringEvent(seq)
				seq++
				r.Emit(ev)
				m.emit(ev)
			}
			checkRing(t, r, m, i == len(bursts)-1)
		}
	}
}

// FuzzRecorderRing checks the chunked ring against the plain-slice model
// for fuzzed capacities and emit/Reset sequences: each op byte below 8
// resets, any other emits byte² events.
func FuzzRecorderRing(f *testing.F) {
	f.Add(uint16(0), []byte{9, 200})
	f.Add(uint16(chunkSize-1), []byte{64, 0, 255, 255})
	f.Add(uint16(chunkSize), []byte{64, 64, 3, 100})
	f.Add(uint16(chunkSize+1), []byte{255, 1, 90, 90})
	f.Add(uint16(3*chunkSize+1234), []byte{255, 255, 255, 5, 200})
	f.Fuzz(func(t *testing.T, capSeed uint16, ops []byte) {
		c := 1 + int(capSeed)%(3*chunkSize+2)
		if len(ops) > 16 {
			ops = ops[:16]
		}
		r, m := newRing(c)
		var seq int64
		for _, op := range ops {
			if op < 8 {
				r.Reset()
				m.reset()
			} else {
				for n := int(op) * int(op); n > 0; n-- {
					ev := ringEvent(seq)
					seq++
					r.Emit(ev)
					m.emit(ev)
				}
			}
			checkRing(t, r, m, false)
		}
		checkRing(t, r, m, true)
	})
}

// TestEmitZeroAllocs pins that a warmed-up ring records without
// allocating, both while wrapping and while refilling after Reset: the
// chunks are kept, so a kernel phase reuses its build phase's memory.
func TestEmitZeroAllocs(t *testing.T) {
	const c = 2*chunkSize + 5
	r := New(c)
	e := ringEvent(1)
	for i := 0; i < c; i++ {
		r.Emit(e)
	}
	if avg := testing.AllocsPerRun(1000, func() { r.Emit(e) }); avg != 0 {
		t.Errorf("Emit on a full ring allocates %.1f objects per event; want 0", avg)
	}
	if avg := testing.AllocsPerRun(3, func() {
		r.Reset()
		for i := 0; i < c; i++ {
			r.Emit(e)
		}
	}); avg != 0 {
		t.Errorf("refilling after Reset allocates %.1f objects per fill; want 0", avg)
	}
}
