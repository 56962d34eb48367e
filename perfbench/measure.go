package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"github.com/wp2p/wp2p/internal/experiments"
	"github.com/wp2p/wp2p/internal/scenario"
)

// runLimit bounds one run. A run that exceeds it counts as failed and ends
// the benchmark: the simulation cannot be interrupted, so its goroutine is
// left to die with the process.
const runLimit = 60 * time.Second

var errTimeout = errors.New("run exceeded its time limit")

// sample is what one run measured.
type sample struct {
	Res      *experiments.Result
	Err      error
	Wall     time.Duration
	CPU      time.Duration // process user+sys over the run
	PeakHeap uint64        // high-water heap-object bytes above the pre-run baseline
	Allocs   uint64        // heap objects allocated
	AllocB   uint64        // heap bytes allocated
	GCs      uint64        // completed GC cycles
}

// runSpec loads the document and runs it on a single engine, the way a user
// of the scenario package would.
func runSpec(doc []byte, opts scenario.Options) (*experiments.Result, error) {
	s, err := scenario.Load(doc)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	return scenario.RunOpts(s, 1, opts)
}

// measureRun runs fn once under the run limit and measures it from outside:
// wall clock, process CPU from getrusage, allocation counters from
// runtime/metrics, and the heap high-water mark from a sampler goroutine.
// It collects garbage first, so a heap left over from an earlier run does
// not count.
func measureRun(fn func() (*experiments.Result, error)) sample {
	runtime.GC()
	before := readRuntime()
	heap := startHeapSampler(heapEvery)
	cpu0 := processCPU()
	t0 := time.Now()

	type outcome struct {
		res *experiments.Result
		err error
	}
	done := make(chan outcome, 1) // buffered: a timed-out run must not block its send
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- outcome{err: fmt.Errorf("panic: %v", r)}
			}
		}()
		res, err := fn()
		done <- outcome{res, err}
	}()
	var o outcome
	timer := time.NewTimer(runLimit)
	select {
	case o = <-done:
		timer.Stop()
	case <-timer.C:
		o.err = errTimeout
	}

	s := sample{Res: o.res, Err: o.err, Wall: time.Since(t0), CPU: processCPU() - cpu0}
	peak := heap.stop()
	after := readRuntime()
	if peak > before.heap {
		s.PeakHeap = peak - before.heap
	}
	s.Allocs = after.allocs - before.allocs
	s.AllocB = after.allocB - before.allocB
	s.GCs = after.gcs - before.gcs
	return s
}

// heapEvery is the heap sampler's period. A run allocates a few hundred MB
// per second, so a 1 ms period places the sampled peak within about 1% of
// the true one.
const heapEvery = time.Millisecond

type heapSampler struct {
	quit, done chan struct{}
	peak       uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.quit:
				metrics.Read(s)
				h.peak = max(h.peak, s[0].Value.Uint64())
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends the sampler and returns the highest heap it saw, including one
// last reading taken after the run.
func (h *heapSampler) stop() uint64 {
	close(h.quit)
	<-h.done
	return h.peak
}

type runtimeCounts struct {
	heap, allocs, allocB, gcs uint64
}

func readRuntime() runtimeCounts {
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return runtimeCounts{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64(), s[3].Value.Uint64()}
}

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	// getrusage(RUSAGE_SELF) fails only for an invalid who argument.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
