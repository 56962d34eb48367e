// Command perfbench is the repository's benchmark. For one named workload
// it generates a wp2p.scenario.v1 document from a seed, runs it through
// scenario.Load and scenario.RunOpts on a single engine with one runner
// worker, checks every run's outputs, and prints its metrics:
//
//	perfbench --workload crowd-packet --seed 7 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics (wall_s, cpu_s, peak_heap_mb,
// setup_s, fidelity_gap); --trace 1 reports the per-layer metrics, with CPU
// attributed from a profile the benchmark takes around its own RunOpts
// calls. The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 when every run
// was correct, 1 when a run failed, and 2 when the benchmark could not run.
//
// -record runs every spec seed once and rewrites the reference outputs under
// -refs; do that only on a commit whose outputs are known to be right.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/wp2p/wp2p/internal/experiments"
	"github.com/wp2p/wp2p/internal/runner"
	"github.com/wp2p/wp2p/internal/scenario"
	"github.com/wp2p/wp2p/internal/stats"
)

func main() {
	name := flag.String("workload", "", "workload: crowd-packet, crowd-hybrid or mobile-wlan")
	seed := flag.Int64("seed", 7, "benchmark seed; it selects spec seed 1 + (seed-1) mod 16")
	seconds := flag.Float64("seconds", 36, "length of the measurement window in seconds")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from profiled runs")
	refs := flag.String("refs", "perfbench/refs", "directory of the recorded reference outputs")
	record := flag.Bool("record", false, "record the references of every spec seed (of -workload, or of all workloads)")
	flag.Parse()

	runner.SetWorkers(1)
	if *record {
		if err := recordAll(*refs, *name); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}

	w, err := workloadByName(*name)
	if err == nil && (*trace != 0 && *trace != 1 || *seconds <= 0) {
		err = errors.New("--trace must be 0 or 1 and --seconds positive")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	sum, err := bench(config{
		w:      w,
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		trace:  *trace == 1,
		refs:   *refs,
		sz:     benchSizes,
		out:    os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !sum.Correct {
		os.Exit(1)
	}
}

func recordAll(dir, name string) error {
	for i := range workloads {
		w := &workloads[i]
		if name != "" && w.Name != name {
			continue
		}
		if err := recordRefs(dir, w, benchSizes); err != nil {
			return err
		}
		fmt.Println("recorded", refPath(dir, w.Name))
	}
	return nil
}

type config struct {
	w      *workload
	seed   int64
	window time.Duration // timed runs start until this much time has passed
	trace  bool
	refs   string
	sz     sizes
	out    io.Writer
}

// setupReps is how many zero-horizon runs setup_s is the median of.
const setupReps = 51

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// session is one benchmark invocation on one workload.
type session struct {
	config
	doc     []byte
	ref     *reference
	first   *experiments.Result // first correct output, for workloads without a recorded one
	stopped bool                // a run timed out; nothing more may start
	sum     summary
}

// bench runs one workload and prints its report, ending with the summary
// line. An error means the benchmark could not run at all (bad references);
// failed runs are reported in the summary instead.
func bench(cfg config) (*summary, error) {
	seed := specSeed(cfg.seed)
	spec := cfg.w.Spec(seed, cfg.sz)
	s := &session{config: cfg, doc: encode(spec), sum: summary{Metrics: map[string]metric{}}}
	ref, err := loadRef(cfg.refs, cfg.w, seed, s.doc)
	if err != nil {
		return nil, err
	}
	s.ref = ref
	fmt.Fprintf(cfg.out, "perfbench: workload %s, seed %d (spec seed %d), %v window, trace %d\n",
		cfg.w.Name, cfg.seed, seed, cfg.window, btoi(cfg.trace))

	folded := map[string]string{}
	s.checkedRun()
	if cfg.trace {
		s.traced(folded)
	} else {
		s.endToEnd(encode(setupSpec(spec)))
	}
	s.sum.Correct = s.sum.Failed == 0
	stamp, err := json.Marshal(envStamp(cfg, seed, folded))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out, "env %s\n", stamp)
	line, err := json.Marshal(s.sum)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out, "%s\n", line)
	return &s.sum, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// run executes fn once and counts it as an attempted operation. A run that
// errs, panics or times out fails; with check set, so does one whose outputs
// are wrong. It reports whether the run was correct.
func (s *session) run(label string, fn func() (*experiments.Result, error), check bool) (sample, bool) {
	r := measureRun(fn)
	s.sum.Attempted++
	s.stopped = errors.Is(r.Err, errTimeout)
	var why string
	switch {
	case r.Err != nil:
		why = r.Err.Error()
	case check:
		why = s.verify(r.Res)
	}
	if why != "" {
		s.sum.Failed++
		fmt.Fprintf(s.out, "FAIL %s run (operation %d): %s\n", label, s.sum.Attempted, why)
	}
	return r, why == ""
}

// verify returns why a run's outputs are wrong, or "" when they are right.
// A packet workload must reproduce its recorded reference exactly; the
// hybrid workload, whose flow model may legitimately change, must at least
// reproduce itself within the session.
func (s *session) verify(res *experiments.Result) string {
	if s.w.Packet {
		want := &experiments.Result{Series: s.ref.Figure, Stats: s.ref.Stats}
		if d := diff(want, res); d != "" {
			return "output differs from the reference: " + d
		}
	} else if s.first == nil {
		s.first = res
	} else if d := diff(s.first, res); d != "" {
		return "output differs from the session's first run: " + d
	}
	if s.w.Crowd {
		if _, ok := completionTime(res, 0.9); !ok {
			return "under 90% of the crowd completed"
		}
	}
	return ""
}

func (s *session) plain() (*experiments.Result, error) { return runSpec(s.doc, scenario.Options{}) }

// checkedRun is the session's untimed run with the invariant checker armed.
// A violation panics inside the run, which fails it.
func (s *session) checkedRun() {
	experiments.EnableChecking(checkEvery)
	defer experiments.DisableChecking()
	s.run("checked", func() (*experiments.Result, error) {
		res, err := s.plain()
		if n := experiments.CheckViolations(); err == nil && n > 0 {
			err = fmt.Errorf("%d invariant violations", n)
		}
		return res, err
	}, true)
}

// endToEnd measures set-up, then times plain runs until the window has
// passed.
func (s *session) endToEnd(setupDoc []byte) {
	var setup, wall, cpu, heap, gap []float64
	for i := 0; i < setupReps && !s.stopped; i++ {
		// A zero-horizon run's outputs are not the workload's, so only
		// its errors count.
		r, ok := s.run("setup", func() (*experiments.Result, error) {
			return runSpec(setupDoc, scenario.Options{})
		}, false)
		if ok {
			setup = append(setup, r.Wall.Seconds())
		}
	}
	var last *experiments.Result
	start := time.Now()
	for n := 0; !s.stopped && (n == 0 || time.Since(start) < s.window); n++ {
		r, ok := s.run("timed", s.plain, true)
		if !ok {
			continue
		}
		last = r.Res
		wall = append(wall, r.Wall.Seconds())
		cpu = append(cpu, r.CPU.Seconds())
		heap = append(heap, float64(r.PeakHeap)/1e6)
		gap = append(gap, 1+math.Abs(s.fidelityErrPct(r.Res))/100)
	}
	if last != nil && s.w.Crowd {
		t50, _ := completionTime(last, 0.5)
		t90, _ := completionTime(last, 0.9)
		fmt.Fprintf(s.out, "fidelity: t50 %.3f s (packet %.3f s), t90 %.3f s (packet %.3f s), fidelity_err_pct %+.2f\n",
			t50, s.ref.PacketT50, t90, s.ref.PacketT90, s.fidelityErrPct(last))
	}
	s.report("wall_s", "s", wall)
	s.report("cpu_s", "s", cpu)
	s.report("peak_heap_mb", "MB", heap)
	s.report("setup_s", "s", setup)
	s.report("fidelity_gap", "ratio", gap)
}

// fidelityErrPct is the signed gap between a crowd run's t90 and that of
// the same spec and seed at packet fidelity, in percent of the latter. A
// packet-level workload's outputs must equal its reference exactly, so its
// error is 0 by construction. fidelity_gap reports 1 + |error|, a metric
// that is never 0.
func (s *session) fidelityErrPct(res *experiments.Result) float64 {
	if !s.w.Crowd {
		return 0
	}
	t90, _ := completionTime(res, 0.9)
	return (t90 - s.ref.PacketT90) / s.ref.PacketT90 * 100
}

// report prints one end-to-end metric's median, quartiles, sample count and
// samples, and puts the median in the summary.
func (s *session) report(name, unit string, v []float64) {
	q1, med, q3 := quartiles(v)
	fmt.Fprintf(s.out, "%-14s median %.6g %s  q1 %.6g  q3 %.6g  n %d  all %.4g\n", name, med, unit, q1, q3, len(v), v)
	s.sum.Metrics[name] = metric{Value: med, Unit: unit}
}

// traced alternates plain and profiled runs until the window has passed,
// then reports the per-layer metrics: the counts from the stats snapshot,
// each layer's share of the profiled CPU and its cost per unit of work, and
// the profiler's overhead against the plain runs.
func (s *session) traced(folded map[string]string) {
	var plainWall, tracedWall, allocMB, allocs, gcs []float64
	var snap *stats.Snapshot
	layerNS := map[string]int64{}
	profiled := 0
	start := time.Now()
	for n := 0; !s.stopped && (n < 2 || time.Since(start) < s.window); n++ {
		prof := n%2 == 1
		var buf bytes.Buffer
		r, ok := s.run("traced", func() (*experiments.Result, error) {
			if prof {
				if err := pprof.StartCPUProfile(&buf); err != nil {
					return nil, err
				}
				defer pprof.StopCPUProfile()
			}
			return s.plain()
		}, true)
		if !ok {
			continue
		}
		snap = r.Res.Stats
		if !prof {
			plainWall = append(plainWall, r.Wall.Seconds())
			allocMB = append(allocMB, float64(r.AllocB)/1e6)
			allocs = append(allocs, float64(r.Allocs))
			gcs = append(gcs, float64(r.GCs))
			continue
		}
		flat, err := flatCPU(buf.Bytes())
		if err != nil {
			s.sum.Failed++
			fmt.Fprintf(s.out, "FAIL traced run (operation %d): %v\n", s.sum.Attempted, err)
			continue
		}
		layerCPU(flat, layerNS, folded)
		tracedWall = append(tracedWall, r.Wall.Seconds())
		profiled++
	}

	m := func(name, unit string, v float64) { s.sum.Metrics[name] = metric{Value: v, Unit: unit} }
	c := counts(snap)
	hops := c["netem.wired.tx_packets"] + c["netem.wireless.tx_packets"]
	var drops float64
	for name, v := range c {
		if strings.HasPrefix(name, "netem.") && strings.Contains(name, "drops.") {
			drops += v
		}
	}
	m("sim.events", "count", c["sim.events_fired"])
	m("sim.queue_peak", "count", c["sim.heap_max_depth"])
	m("netem.hops", "count", hops)
	m("netem.drop_ratio", "ratio", ratio(drops, hops))
	m("tcp.segments", "count", c["tcp.segs_rcvd"])
	m("tcp.retransmit_ratio", "ratio", ratio(c["tcp.retransmits"], c["tcp.segs_sent"]))
	m("flow.rate_updates", "count", c["flow.rate_updates"])
	m("flow.packets_per_stream", "pkt/stream", ratio(c["flow.delivered_packets"], c["flow.streams_opened"]))
	m("bt.pieces", "count", c["bt.pieces_completed"])
	m("bt.tracker.announces", "count", c["bt.tracker.announces"])
	m("wp2p.am.decoupled", "count", c["wp2p.am.decoupled"])
	m("wp2p.rr.reversals", "count", c["wp2p.rr.reversals"])
	m("mobility.handoffs", "count", c["mobility.handoffs"])
	m("runtime.alloc_mb", "MB", median(allocMB))
	m("runtime.allocs", "count", median(allocs))
	m("runtime.gc_cycles", "count", median(gcs))

	var total int64
	for _, ns := range layerNS {
		total += ns
	}
	for _, l := range layers {
		m(l+".cpu_share", "%", ratio(float64(layerNS[l]), float64(total))*100)
	}
	// Unit costs: a layer's self CPU per profiled run over its work count.
	perRun := func(l string) float64 { return ratio(float64(layerNS[l]), float64(profiled)) }
	m("sim.ns_per_event", "ns", ratio(perRun("sim"), c["sim.events_fired"]))
	m("netem.ns_per_hop", "ns", ratio(perRun("netem"), hops))
	m("tcp.ns_per_segment", "ns", ratio(perRun("tcp"), c["tcp.segs_rcvd"]))
	m("flow.ns_per_rate_update", "ns", ratio(perRun("flow"), c["flow.rate_updates"]))
	m("bt.us_per_piece", "us", ratio(perRun("bt")/1e3, c["bt.pieces_completed"]))

	m("trace.overhead_pct", "%", (ratio(median(tracedWall), median(plainWall))-1)*100)
	fmt.Fprintf(s.out, "traced: %d profiled and %d plain runs, %.0f profiled CPU ms per run\n",
		profiled, len(plainWall), ratio(float64(total), float64(profiled))/1e6)
	for _, l := range layers {
		fmt.Fprintf(s.out, "  %-10s %6.2f%%\n", l, s.sum.Metrics[l+".cpu_share"].Value)
	}
}
