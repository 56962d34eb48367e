package sim

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// refEvent is the reference model's view of one pending event.
type refEvent struct {
	at   time.Duration
	seq  uint64
	id   int
	kind int // refPlain, refStopper, refTimer or refTicker
}

const (
	refPlain = iota
	refStopper
	refTimer
	refTicker
)

// Population caps keep the invariant sweep after every fired event cheap.
const (
	diffMaxTop   = 160 // top-level schedules stop above this many pending
	diffMaxChild = 220 // callbacks stop scheduling children above this
)

type diffTimer struct {
	tm *Timer
	id int // model id of the pending firing, -1 when unarmed
}

type diffTicker struct {
	tk       *Ticker
	interval time.Duration
	id       int // model id of the pending tick, -1 once stopped
}

// diffHarness drives an Engine and a reference model side by side. The model
// is a slice of the pending events sorted by (at, seq) — the engine's
// documented order — and assigns seq exactly as Schedule does, so both must
// agree on every fired event, the pending count, the sequence counter and the
// queue-depth gauge.
type diffHarness struct {
	t       *testing.T
	e       *Engine
	rng     *rand.Rand
	model   []refEvent
	nextSeq uint64
	nextID  int
	peak    int
	handles map[int]*Event // live handles of plain events, by model id
	timers  []*diffTimer
	tickers []*diffTicker
	limit   time.Duration // latest time the current run may fire
	stopped bool          // a stopper fired during the current run
	stopAt  time.Duration // when it fired
	fired   int
}

func newDiffHarness(t *testing.T, seed int64) *diffHarness {
	h := &diffHarness{
		t:       t,
		e:       NewEngine(WithSeed(seed)),
		rng:     rand.New(rand.NewSource(seed)),
		handles: make(map[int]*Event),
	}
	h.e.SetAfterStep(func() { h.checkInvariants("after step") })
	for i := 0; i < 4; i++ {
		dt := &diffTimer{id: -1}
		i := i
		dt.tm = NewTimer(h.e, func() { h.onTimer(i) })
		h.timers = append(h.timers, dt)
	}
	return h
}

func (h *diffHarness) checkInvariants(where string) {
	h.e.CheckInvariants(func(inv, detail string) {
		h.t.Fatalf("%s: invariant %s: %s", where, inv, detail)
	})
}

// insert adds an event to the model with the next sequence stamp. Callers
// insert immediately before the engine call that schedules it.
func (h *diffHarness) insert(at time.Duration, kind int) int {
	id := h.nextID
	h.nextID++
	ev := refEvent{at: at, seq: h.nextSeq, id: id, kind: kind}
	h.nextSeq++
	i := sort.Search(len(h.model), func(i int) bool {
		m := h.model[i]
		return m.at > at || (m.at == at && m.seq > ev.seq)
	})
	h.model = append(h.model, refEvent{})
	copy(h.model[i+1:], h.model[i:])
	h.model[i] = ev
	if len(h.model) > h.peak {
		h.peak = len(h.model)
	}
	return id
}

func (h *diffHarness) removeID(id int) {
	for i, m := range h.model {
		if m.id == id {
			h.model = append(h.model[:i], h.model[i+1:]...)
			return
		}
	}
	h.t.Fatalf("model has no pending event %d", id)
}

// fire checks that the engine fired the model's earliest event and pops it.
func (h *diffHarness) fire(id int) {
	if len(h.model) == 0 {
		h.t.Fatalf("engine fired event %d, model queue is empty", id)
	}
	want := h.model[0]
	if want.id != id {
		h.t.Fatalf("engine fired event %d at %v, model expects %d (at=%v seq=%d)", id, h.e.Now(), want.id, want.at, want.seq)
	}
	if h.e.Now() != want.at {
		h.t.Fatalf("event %d fired at %v, scheduled for %v", id, h.e.Now(), want.at)
	}
	if want.at > h.limit {
		h.t.Fatalf("event %d at %v fired past the run's limit %v", id, want.at, h.limit)
	}
	h.model = h.model[1:]
	h.fired++
}

// drawDelay mixes zero delays, same-instant ties with a pending event, and
// delays from 1 ns to 2^40 ns.
func (h *diffHarness) drawDelay() time.Duration {
	switch h.rng.Intn(10) {
	case 0:
		return 0
	case 1:
		if len(h.model) > 0 {
			return h.model[h.rng.Intn(len(h.model))].at - h.e.Now()
		}
		return 0
	}
	return 1 + time.Duration(h.rng.Int63n(1<<uint(1+h.rng.Intn(40))))
}

func (h *diffHarness) schedule(delay time.Duration, kind int) {
	id := h.insert(h.e.Now()+delay, kind)
	h.handles[id] = h.e.Schedule(delay, func() { h.onPlain(id, kind) })
}

func (h *diffHarness) onPlain(id, kind int) {
	h.fire(id)
	delete(h.handles, id)
	if kind == refStopper {
		h.e.Stop()
		h.stopped, h.stopAt = true, h.e.Now()
		return
	}
	h.callbackActions()
}

func (h *diffHarness) onTimer(i int) {
	dt := h.timers[i]
	h.fire(dt.id)
	dt.id = -1
	h.callbackActions()
}

func (h *diffHarness) onTick(i int) {
	dk := h.tickers[i]
	h.fire(dk.id)
	h.callbackActions()
	if h.rng.Intn(8) == 0 {
		dk.tk.Stop()
		dk.id = -1
		return
	}
	// The ticker re-arms right after this callback returns, so its next
	// tick takes the next sequence stamp.
	dk.id = h.insert(h.e.Now()+dk.interval, refTicker)
}

// callbackActions is what a fired event does: schedule children (often at
// the same instant), cancel a pending event, or re-arm a timer.
func (h *diffHarness) callbackActions() {
	if len(h.model) < diffMaxChild {
		for n := h.rng.Intn(3); n > 0; n-- {
			h.schedule(h.drawDelay(), refPlain)
		}
	}
	switch h.rng.Intn(6) {
	case 0:
		h.cancelRandom()
	case 1:
		h.resetTimer(h.rng.Intn(len(h.timers)), h.drawDelay())
	}
}

func (h *diffHarness) cancelRandom() {
	if len(h.model) == 0 {
		return
	}
	m := h.model[h.rng.Intn(len(h.model))]
	if m.kind != refPlain {
		return
	}
	h.removeID(m.id)
	h.e.Cancel(h.handles[m.id])
	delete(h.handles, m.id)
}

func (h *diffHarness) resetTimer(i int, d time.Duration) {
	dt := h.timers[i]
	if dt.id >= 0 {
		h.removeID(dt.id)
	}
	dt.id = h.insert(h.e.Now()+d, refTimer)
	dt.tm.Reset(d)
}

func (h *diffHarness) stopTicker(dk *diffTicker) {
	h.removeID(dk.id)
	dk.tk.Stop()
	dk.id = -1
}

func (h *diffHarness) activeTickers() int {
	n := 0
	for _, dk := range h.tickers {
		if dk.id >= 0 {
			n++
		}
	}
	return n
}

// run drives one RunUntil/RunBefore/RunFor/Run/Step and checks where it
// stopped against the model.
func (h *diffHarness) run() {
	now := h.e.Now()
	var deadline time.Duration
	switch {
	case len(h.model) > 0 && h.rng.Intn(3) == 0:
		// Land on, or one nanosecond short of, the next pending event.
		deadline = h.model[0].at - time.Duration(h.rng.Intn(2))
	case h.rng.Intn(8) == 0:
		deadline = now
	default:
		deadline = now + 1 + time.Duration(h.rng.Int63n(1<<uint(1+h.rng.Intn(34))))
	}
	if deadline < now {
		deadline = now
	}
	inclusive := true
	switch op := h.rng.Intn(10); {
	case op < 4:
		h.limit = deadline
		h.e.RunUntil(deadline)
	case op < 8:
		inclusive = false
		h.limit = deadline - 1
		h.e.RunBefore(deadline)
	case op < 9:
		h.limit = deadline
		h.e.RunFor(deadline - now)
	default:
		if h.activeTickers() == 0 && len(h.model) < 60 {
			h.limit = math.MaxInt64
			h.e.Run()
			if !h.stopped && len(h.model) != 0 {
				h.t.Fatalf("Run returned with %d events pending", len(h.model))
			}
			h.stopped = false
			return
		}
		h.limit = math.MaxInt64
		fired := h.fired
		stepped := h.e.Step()
		if stepped != (fired != h.fired) {
			h.t.Fatalf("Step reported %v, model saw %d fires", stepped, h.fired-fired)
		}
		h.stopped = false
		return
	}
	if h.stopped {
		// Stopped by a stopper: the clock stays at the stopper's time.
		h.stopped = false
		if h.e.Now() != h.stopAt {
			h.t.Fatalf("clock %v after a Stop at %v", h.e.Now(), h.stopAt)
		}
		return
	}
	if len(h.model) > 0 {
		next := h.model[0].at
		if next < deadline || (inclusive && next == deadline) {
			h.t.Fatalf("run to %v (inclusive %v) stopped with event at %v pending", deadline, inclusive, next)
		}
	}
	if h.e.Now() != deadline {
		h.t.Fatalf("clock %v after run to %v", h.e.Now(), deadline)
	}
	// A run that stopped short may be followed by schedules between the
	// clock and the next pending event.
	if len(h.model) > 0 {
		gap := h.model[0].at - h.e.Now()
		for n := h.rng.Intn(3); n > 0 && len(h.model) < diffMaxChild; n-- {
			h.schedule(time.Duration(h.rng.Int63n(int64(gap)+1)), refPlain)
		}
	}
}

func (h *diffHarness) step() {
	switch op := h.rng.Intn(20); {
	case op < 7:
		if len(h.model) < diffMaxTop {
			h.schedule(h.drawDelay(), refPlain)
		}
	case op < 8:
		if len(h.model) < diffMaxTop {
			// Stop and resume: the stopper halts the next run after it fires.
			h.schedule(h.drawDelay()%(1<<30), refStopper)
		}
	case op < 10:
		h.cancelRandom()
	case op < 12:
		h.resetTimer(h.rng.Intn(len(h.timers)), h.drawDelay())
	case op < 13:
		if h.activeTickers() < 3 {
			i := len(h.tickers)
			dk := &diffTicker{interval: time.Duration(1) << uint(24+h.rng.Intn(12))}
			h.tickers = append(h.tickers, dk)
			dk.id = h.insert(h.e.Now()+dk.interval, refTicker)
			dk.tk = NewTicker(h.e, dk.interval, func() { h.onTick(i) })
		} else {
			for _, dk := range h.tickers {
				if dk.id >= 0 {
					h.stopTicker(dk)
					break
				}
			}
		}
	case op < 15:
		at, ok := h.e.PeekNext()
		if ok != (len(h.model) > 0) || (ok && at != h.model[0].at) {
			h.t.Fatalf("PeekNext = %v, %v; model next %v", at, ok, h.model)
		}
		// A peek fires nothing, so an event between the clock and the
		// peeked time must still be accepted and fire first.
		if ok && len(h.model) < diffMaxChild {
			h.schedule(time.Duration(h.rng.Int63n(int64(at-h.e.Now())+1)), refPlain)
		}
	default:
		h.run()
	}
}

func (h *diffHarness) verify(step int) {
	h.checkInvariants("after operation")
	if got, want := h.e.Pending(), len(h.model); got != want {
		h.t.Fatalf("step %d: Pending() = %d, model has %d", step, got, want)
	}
	if got := h.e.Seq(); got != h.nextSeq {
		h.t.Fatalf("step %d: Seq() = %d, model %d", step, got, h.nextSeq)
	}
	if got := h.e.statsHeapDepth.Value(); got != int64(h.peak) {
		h.t.Fatalf("step %d: sim.heap_max_depth = %d, model peak %d", step, got, h.peak)
	}
}

// TestDifferentialOrdering drives the engine and a sorted-slice reference
// model through interleaved schedules (zero delay, same-instant ties, 1 ns to
// 2^40 ns), cancels, Timer resets, tickers, runs that stop short followed by
// schedules into the gap they left, peeks and Stop/resume, and requires the
// same fired sequence, pending count and queue-depth peak throughout. Unlike
// TestPropertyEventOrdering, which schedules everything up front, it catches
// a queue that commits to the next event's time before firing it.
func TestDifferentialOrdering(t *testing.T) {
	seeds, steps := 12, 3000
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		h := newDiffHarness(t, seed)
		for i := 0; i < steps; i++ {
			h.step()
			h.verify(i)
		}
		for _, dk := range h.tickers {
			if dk.id >= 0 {
				h.stopTicker(dk)
			}
		}
		h.limit = math.MaxInt64
		h.e.Run()
		for h.stopped {
			h.stopped = false
			h.e.Run()
		}
		h.verify(steps)
		if len(h.model) != 0 {
			t.Fatalf("seed %d: %d events pending after drain", seed, len(h.model))
		}
		if h.fired < steps/2 {
			t.Fatalf("seed %d: only %d events fired; the mix is not exercising the queue", seed, h.fired)
		}
	}
}

// corruptibleEngine returns an engine with several events in bucket 0 (at
// the current instant) and at least one higher bucket holding two events.
func corruptibleEngine(t *testing.T) (*Engine, int) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 3; i++ {
		e.Schedule(time.Second, fn)
	}
	for _, d := range []time.Duration{3 * time.Second, 3*time.Second + 1, 5 * time.Second, time.Hour} {
		e.Schedule(d, fn)
	}
	e.Step() // base moves to 1s, leaving two events in bucket 0
	for k := 1; k < numBuckets; k++ {
		if ev := e.q.head[k]; ev != nil && ev.next != nil {
			return e, k
		}
	}
	t.Fatal("no bucket above 0 holds two events")
	return nil, 0
}

func TestCheckInvariantsReportsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(e *Engine, k int)
		want    string
	}{
		{"prev link", func(e *Engine, k int) { e.q.head[k].next.prev = nil }, "sim.queue_links"},
		{"tail", func(e *Engine, k int) { e.q.tail[k] = e.q.head[k] }, "sim.queue_links"},
		{"next cycle", func(e *Engine, k int) { e.q.tail[k].next = e.q.head[k] }, "sim.queue_count"},
		{"bucket number", func(e *Engine, k int) { e.q.head[k].bucket++ }, "sim.queue_bucket"},
		{"mask", func(e *Engine, k int) { e.q.mask &^= 1 << uint(k) }, "sim.queue_mask"},
		{"bucket bound", func(e *Engine, k int) { e.q.low[k] = e.q.head[k].next.at + 1 }, "sim.queue_low"},
		{"bucket 0 seq", func(e *Engine, k int) {
			a, b := e.q.head[0], e.q.head[0].next
			a.seq, b.seq = b.seq, a.seq
		}, "sim.queue_seq"},
		{"live count", func(e *Engine, k int) { e.q.n++ }, "sim.queue_count"},
		{"expired", func(e *Engine, k int) { e.q.head[k].expired = true }, "sim.heap_expired"},
		{"event in past", func(e *Engine, k int) { e.now = 2 * time.Hour }, "sim.event_in_past"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, k := corruptibleEngine(t)
			var clean []string
			e.CheckInvariants(func(inv, detail string) { clean = append(clean, inv+": "+detail) })
			if len(clean) != 0 {
				t.Fatalf("uncorrupted engine reports %v", clean)
			}
			c.corrupt(e, k)
			var got []string
			e.CheckInvariants(func(inv, detail string) { got = append(got, inv) })
			if !strings.Contains(strings.Join(got, " "), c.want) {
				t.Fatalf("reports %v, want %s", got, c.want)
			}
		})
	}
}

// TestEventSizeClass pins Event to the 48-byte allocation size class: the
// queue links replaced the heap index without growing the struct.
func TestEventSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size > 48 {
		t.Fatalf("sizeof(Event) = %d, want ≤ 48", size)
	}
}

// TestScheduleSaturatesAtEndOfTime pins that a delay overflowing the clock
// lands at the last representable instant instead of wrapping into the past,
// where the queue's monotone order could not hold it.
func TestScheduleSaturatesAtEndOfTime(t *testing.T) {
	e := NewEngine()
	e.RunUntil(time.Second)
	ev := e.Schedule(math.MaxInt64, func() {})
	if ev.At() != math.MaxInt64 {
		t.Fatalf("At() = %v, want the end of time", ev.At())
	}
	if at, ok := e.PeekNext(); !ok || at != math.MaxInt64 {
		t.Fatalf("PeekNext = %v, %v", at, ok)
	}
	if !e.Step() || e.Now() != math.MaxInt64 || e.Pending() != 0 {
		t.Fatalf("after Step: now %v, pending %d", e.Now(), e.Pending())
	}
}
