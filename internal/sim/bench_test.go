package sim

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// The engine's Schedule/Step cycle is the inner loop of every experiment
// (each run schedules millions of packet and timer events), so these
// benchmarks report allocations: the specialized queue plus the Event
// free-list keep the steady-state hot path at ~0 allocs/op.

// BenchmarkEngineSchedule measures one schedule+fire cycle — the free-list
// hit path once the first event has been recycled.
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Microsecond, fn)
		e.Step()
	}
}

// BenchmarkEngineScheduleDepth100 is the same cycle against a standing
// queue of 100 events parked hours ahead. The churned 1 µs event is always
// the earliest, so this exercises little of the queue's depth;
// BenchmarkEngineTimerMix is the realistic shape.
func BenchmarkEngineScheduleDepth100(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 100; i++ {
		e.Schedule(time.Duration(i+1)*time.Hour, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Microsecond, fn)
		e.Step()
	}
}

// BenchmarkEngineTimerChurn measures re-arming a Timer, the cancel +
// reschedule pattern of TCP retransmission and delayed-ACK timers.
func BenchmarkEngineTimerChurn(b *testing.B) {
	e := NewEngine()
	tm := NewTimer(e, func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(time.Millisecond)
	}
	tm.Stop()
}

// BenchmarkEngineCancelHeavy schedules a batch, cancels every other event,
// and drains the rest — the pattern of request-timeout sweeps.
func BenchmarkEngineCancelHeavy(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	const batch = 64
	evs := make([]*Event, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			evs[j] = e.Schedule(time.Duration(j+1)*time.Millisecond, fn)
		}
		for j := 0; j < batch; j += 2 {
			e.Cancel(evs[j])
		}
		e.Run()
	}
}

// timerMixBands is crowd-packet's schedule-delay mix: the share of all
// Schedule calls per delay band (no zero delays), delays log-uniform within a
// band.
var timerMixBands = []struct {
	lo, hi time.Duration
	pct    int
}{
	{10 * time.Microsecond, 100 * time.Microsecond, 11},
	{100 * time.Microsecond, time.Millisecond, 11},
	{time.Millisecond, 10 * time.Millisecond, 42},
	{10 * time.Millisecond, 100 * time.Millisecond, 23},
	{100 * time.Millisecond, time.Second, 9},
	{time.Second, 150 * time.Second, 4},
}

func logUniform(r *rand.Rand, lo, hi time.Duration) time.Duration {
	return time.Duration(float64(lo) * math.Exp(r.Float64()*math.Log(float64(hi)/float64(lo))))
}

// timerMixOp is one pre-drawn schedule of BenchmarkEngineTimerMix: a plain
// Schedule when timers is nil, otherwise a Reset of the next timer of that
// pool, round robin.
type timerMixOp struct {
	d      time.Duration
	timers *timerPool
}

type timerPool struct {
	t    []*Timer
	next int
}

func (p *timerPool) reset(d time.Duration) {
	p.t[p.next].Reset(d)
	p.next = (p.next + 1) % len(p.t)
}

// BenchmarkEngineTimerMix measures one schedule-and-fire cycle against a
// queue shaped like crowd-packet's mid-run queue: a standing population of
// 4,600 events, mostly far-future timers, where every pop has to get past
// them. Each op schedules one event with a delay drawn from the measured
// schedule-delay mix (timerMixBands) and fires events until the population
// is back at 4,600. About 10% of the schedules are Timer.Reset calls, round
// robin over two pools: the ≥1 s band re-arms one of 2,100 far timers
// (keepalive, choke and announce timers) and two thirds of the 0.1–1 s band
// one of 100 retransmission-style timers. Over a run, 10–12% of the pending
// events are due within 10 ms, the median is 0.54–0.59 s ahead and 44% are
// more than 1 s ahead (measured on crowd-packet: 12%, 0.6 s, 42%).
func BenchmarkEngineTimerMix(b *testing.B) {
	const (
		standing  = 4600
		farTimers = 2100
		rtoTimers = 100
		warmup    = 50000
	)
	r := rand.New(rand.NewSource(1))
	e := NewEngine()
	fn := func() {}
	far := &timerPool{t: make([]*Timer, farTimers)}
	for i := range far.t {
		far.t[i] = NewTimer(e, fn)
		far.t[i].Reset(logUniform(r, time.Second, 150*time.Second))
	}
	rto := &timerPool{t: make([]*Timer, rtoTimers)}
	for i := range rto.t {
		rto.t[i] = NewTimer(e, fn)
		rto.t[i].Reset(logUniform(r, 100*time.Millisecond, time.Second))
	}
	for e.Pending() < standing {
		e.Schedule(logUniform(r, 10*time.Microsecond, 100*time.Millisecond), fn)
	}
	// Drawing delays costs as much as a queue operation, so the ops are
	// drawn up front and cycled.
	ops := make([]timerMixOp, 1<<16)
	for i := range ops {
		x, k := r.Intn(100), 0
		for ; x >= timerMixBands[k].pct; k++ {
			x -= timerMixBands[k].pct
		}
		op := timerMixOp{d: logUniform(r, timerMixBands[k].lo, timerMixBands[k].hi)}
		switch {
		case k == len(timerMixBands)-1:
			op.timers = far
		case k == len(timerMixBands)-2 && x < 6:
			op.timers = rto
		}
		ops[i] = op
	}
	cycle := func(op timerMixOp) {
		if op.timers != nil {
			op.timers.reset(op.d)
		} else {
			e.Schedule(op.d, fn)
		}
		for e.Pending() > standing {
			e.Step()
		}
	}
	for i := 0; i < warmup; i++ {
		cycle(ops[i&(len(ops)-1)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(ops[i&(len(ops)-1)])
	}
}
