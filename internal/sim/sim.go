// Package sim provides a deterministic discrete-event simulation engine.
//
// All model time is virtual: the engine maintains a clock that jumps from
// event to event, so a simulated hour of a BitTorrent swarm runs in
// milliseconds of wall time. The engine is strictly single-threaded; model
// code runs only inside event callbacks, which makes every run with the same
// seed bit-for-bit reproducible.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/wp2p/wp2p/internal/stats"
)

// Engine is a discrete-event scheduler with a virtual clock.
//
// The zero value is not usable; create engines with NewEngine.
type Engine struct {
	now time.Duration
	// q holds the pending events in (at, seq) order; see radixQueue.
	// Schedule/Step are the inner loop of every simulation (millions of
	// packet and timer events per run), so the queue is specialized to
	// *Event and allocates nothing.
	q radixQueue
	// free is a LIFO list of expired Event structs, linked through next,
	// for reuse, so steady-state Schedule/Step cycles allocate nothing.
	free    *Event
	seq     uint64
	rng     *rand.Rand
	running bool
	stopped bool

	// reg is the engine's metrics registry; every layer built on this
	// engine registers its instruments here. The engine's own counters are
	// pre-bound below so the Schedule/Step hot path stays allocation-free.
	reg            *stats.Registry
	statsScheduled *stats.Counter
	statsFired     *stats.Counter
	statsCancelled *stats.Counter
	statsFreeHits  *stats.Counter
	statsHeapDepth *stats.Gauge

	// components holds every model component built on this engine, in
	// construction order. Construction order is deterministic for a given
	// world builder, so walks over this slice (invariant sweeps, state
	// digests) are reproducible without sorting.
	components []any
	// compBuf backs components for small worlds so registration costs no
	// heap allocation; engines hosting more than its length spill into a
	// grown slice the usual way.
	compBuf    [24]any
	onRegister func(c any)
	// afterStep, when non-nil, runs after every fired event. It is the only
	// hook the hot path pays for — a single nil check per Step — and is how
	// the runtime invariant checker (internal/check) observes the run.
	afterStep func()
}

// Option configures an Engine.
type Option func(*Engine)

// WithSeed sets the seed of the engine's deterministic random source.
// Engines created with the same seed and fed the same event sequence
// produce identical runs.
func WithSeed(seed int64) Option {
	return func(e *Engine) { e.rng = rand.New(rand.NewSource(seed)) }
}

// NewEngine returns an engine with the clock at zero.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{
		rng: rand.New(rand.NewSource(1)),
		reg: stats.NewRegistry(),
	}
	e.statsScheduled = e.reg.Counter("sim.events_scheduled")
	e.statsFired = e.reg.Counter("sim.events_fired")
	e.statsCancelled = e.reg.Counter("sim.events_cancelled")
	e.statsFreeHits = e.reg.Counter("sim.freelist_hits")
	e.statsHeapDepth = e.reg.Gauge("sim.heap_max_depth")
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Stats returns the engine's metrics registry. Components built on the
// engine register their instruments here at construction time.
func (e *Engine) Stats() *stats.Registry { return e.reg }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic random source. Model code must
// draw all randomness from this source to preserve reproducibility.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Register records a component built on this engine. Components register
// themselves at construction (NewNetwork, NewAccessLink, NewStack, ...), so
// the slice reflects deterministic construction order. Cross-cutting tools
// walk it looking for optional capabilities — the invariant checker for
// CheckState/DigestInto hooks, for example — without the engine knowing
// their types.
func (e *Engine) Register(c any) {
	if c == nil {
		return
	}
	if e.components == nil {
		e.components = e.compBuf[:0]
	}
	e.components = append(e.components, c)
	if e.onRegister != nil {
		e.onRegister(c)
	}
}

// Components returns the registered components in registration order. The
// returned slice is the engine's own; callers must not mutate it.
func (e *Engine) Components() []any { return e.components }

// OnRegister installs a hook invoked for every component registered after
// this call (components already present are not replayed; callers wanting
// them walk Components themselves). A nil fn clears the hook. At most one
// hook is active at a time.
func (e *Engine) OnRegister(fn func(c any)) { e.onRegister = fn }

// SetAfterStep installs a hook that runs after every fired event, with the
// clock already advanced and the event callback returned. A nil fn clears
// it. The hook must not schedule events or draw randomness if the run's
// determinism relative to hook-free runs matters (the invariant checker
// obeys this).
func (e *Engine) SetAfterStep(fn func()) { e.afterStep = fn }

// Seq returns the number of events ever scheduled — the next event's
// sequence stamp. Together with Now and Pending it summarizes engine
// progress for state digests.
func (e *Engine) Seq() uint64 { return e.seq }

// Event is a scheduled callback. It can be cancelled before it fires.
//
// An Event handle is live from Schedule until the event fires or is
// cancelled. After that the engine recycles the struct for a later
// Schedule call, so a retained handle may suddenly describe an unrelated
// pending event. Holders that outlive their event must drop the handle
// when it fires (as Timer does, by clearing its field inside the
// callback) and must not Cancel or inspect it afterwards.
//
// While queued, an Event is linked into one of the queue's bucket lists
// through next and prev, and bucket names that list; once expired, next
// links it into the engine's free list. The links are the engine's alone.
type Event struct {
	at         time.Duration
	seq        uint64
	fn         func()
	next, prev *Event
	bucket     int32
	expired    bool
}

// Cancelled reports whether the event was cancelled or has already fired.
func (ev *Event) Cancelled() bool { return ev == nil || ev.expired }

// At returns the virtual time the event is scheduled to fire.
func (ev *Event) At() time.Duration { return ev.at }

// Schedule runs fn after delay of virtual time. A negative delay is treated
// as zero, and a delay past the end of time saturates there. Events
// scheduled for the same instant fire in scheduling order. The returned
// handle is valid until the event fires or is cancelled; see the Event
// lifetime rules.
func (e *Engine) Schedule(delay time.Duration, fn func()) *Event {
	if fn == nil {
		panic("sim: Schedule called with nil function")
	}
	if delay < 0 {
		delay = 0
	}
	ev := e.free
	if ev != nil {
		e.free = ev.next
		ev.expired = false
		e.statsFreeHits.Inc()
	} else {
		ev = &Event{}
	}
	at := e.now + delay
	if at < e.now {
		at = math.MaxInt64
	}
	ev.at = at
	ev.seq = e.seq
	ev.fn = fn
	e.seq++
	e.q.push(ev)
	e.statsScheduled.Inc()
	e.statsHeapDepth.SetMax(int64(e.q.n))
	return ev
}

// ScheduleAt runs fn at absolute virtual time t. If t is in the past the
// event fires at the current time.
func (e *Engine) ScheduleAt(t time.Duration, fn func()) *Event {
	return e.Schedule(t-e.now, fn)
}

// Cancel removes a pending event and recycles it. Cancelling a nil, fired,
// or already cancelled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.expired {
		return
	}
	e.q.remove(ev)
	ev.expired = true
	e.statsCancelled.Inc()
	e.release(ev)
}

// Step fires the next pending event and advances the clock to it.
// It reports whether an event was fired.
func (e *Engine) Step() bool {
	ev := e.q.popUntil(math.MaxInt64)
	if ev == nil {
		return false
	}
	ev.expired = true
	e.now = ev.at
	fn := ev.fn
	e.statsFired.Inc()
	fn()
	e.release(ev)
	if e.afterStep != nil {
		e.afterStep()
	}
	return true
}

// Run fires events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.run(math.MaxInt64, true)
}

// RunUntil fires events with timestamps at or before deadline, then sets the
// clock to deadline. Events scheduled after deadline remain queued.
func (e *Engine) RunUntil(deadline time.Duration) {
	e.run(deadline, true)
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
}

// RunBefore fires events with timestamps strictly before deadline, then sets
// the clock to deadline. It is the half-open window primitive the sharded
// barrier runs on: an event injected at exactly the next window boundary
// belongs to the next window, so two shards agreeing on a boundary never
// disagree about which side of it an event fired on.
func (e *Engine) RunBefore(deadline time.Duration) {
	e.run(deadline, false)
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
}

// RunFor advances the simulation by d of virtual time.
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now + d) }

// PeekNext returns the timestamp of the earliest pending event. ok is false
// when the queue is empty.
func (e *Engine) PeekNext() (at time.Duration, ok bool) { return e.q.peek() }

// run fires events due at or before deadline (strictly before it unless
// inclusive) until none remain or Stop is called.
func (e *Engine) run(deadline time.Duration, inclusive bool) {
	if e.running {
		panic("sim: Run called re-entrantly from inside an event")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()
	limit := deadline
	if !inclusive && limit > math.MinInt64 {
		limit-- // times are integers: before deadline is at or before deadline-1
	}
	for !e.stopped {
		ev := e.q.popUntil(limit)
		if ev == nil {
			return
		}
		ev.expired = true
		e.now = ev.at
		fn := ev.fn
		e.statsFired.Inc()
		fn()
		e.release(ev)
		if e.afterStep != nil {
			e.afterStep()
		}
	}
}

// Stop halts the current Run/RunUntil after the in-flight event returns.
// Pending events stay queued, so the run can be resumed.
func (e *Engine) Stop() { e.stopped = true }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.q.n }

// String describes the engine state, for debugging.
func (e *Engine) String() string {
	return fmt.Sprintf("sim.Engine{now: %v, pending: %d}", e.now, e.q.n)
}

// CheckInvariants verifies the scheduler's internal invariants — bucket
// list coherence, bucket numbers and bounds, the non-empty mask, seq order
// at the current instant, the live count, and that no pending event
// predates the clock — reporting each failure as report(invariant, detail). The engine
// validates itself so the invariant checker (internal/check) needs no access
// to the unexported queue; sim has no dependency on that package.
func (e *Engine) CheckInvariants(report func(invariant, detail string)) {
	e.q.check(e.now, report)
}

// release clears an expired event and parks it for reuse. The free list
// holds at most the peak number of simultaneously pending events.
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	ev.next = e.free
	e.free = ev
}
