package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the subset of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// tinyRefs records tiny-size references for every workload into a fresh
// directory.
func tinyRefs(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for i := range workloads {
		if err := recordRefs(dir, &workloads[i], tinySizes); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// runTiny runs one tiny session and returns its parsed summary line and the
// whole report.
func runTiny(t *testing.T, refs, name string, trace bool) (summary, string) {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := bench(config{w: w, seed: 7, window: time.Millisecond, trace: trace, refs: refs, sz: tinySizes, out: &out}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("last line is not the summary: %v\n%s", err, out.String())
	}
	return sum, out.String()
}

// TestEveryMetricPrintsWithItsUnit runs every workload of BENCHMARK.json in
// both modes at tiny size and checks that the summary carries exactly the
// metrics BENCHMARK.json names, each with its unit, from correct runs.
func TestEveryMetricPrintsWithItsUnit(t *testing.T) {
	b := readBenchmarkFile(t)
	refs := tinyRefs(t)
	for _, wl := range b.Workloads {
		for _, trace := range []bool{false, true} {
			sum, report := runTiny(t, refs, wl.Name, trace)
			if !sum.Correct || sum.Failed != 0 || sum.Attempted < 2 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
					wl.Name, trace, sum.Correct, sum.Failed, sum.Attempted, report)
			}
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			if len(sum.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", wl.Name, trace, len(sum.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := sum.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", wl.Name, trace, m.Name, got, m.Unit)
				}
			}
			if !strings.Contains(report, `"gomaxprocs"`) || !strings.Contains(report, `"cpu_model"`) {
				t.Errorf("%s trace=%v: report lacks the environment stamp", wl.Name, trace)
			}
		}
	}
}

// TestWrongReferenceIsAFailedRun tampers with one recorded counter and
// expects every run of that workload to be reported as failed, with the
// summary still printed.
func TestWrongReferenceIsAFailedRun(t *testing.T) {
	refs := tinyRefs(t)
	path := filepath.Join(refs, "crowd-packet.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var all map[string]*reference
	if err := json.Unmarshal(data, &all); err != nil {
		t.Fatal(err)
	}
	for _, r := range all {
		r.Stats.Counters[0].Value++
	}
	if data, err = json.Marshal(all); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sum, report := runTiny(t, refs, "crowd-packet", false)
	if sum.Correct || sum.Failed == 0 {
		t.Fatalf("a wrong reference passed: %+v\n%s", sum, report)
	}
	// Only the zero-horizon set-up runs, whose outputs are not compared,
	// may pass.
	if sum.Failed != sum.Attempted-setupReps {
		t.Errorf("failed %d of %d attempted, want every run but the %d set-up runs", sum.Failed, sum.Attempted, setupReps)
	}
	if !strings.Contains(report, "FAIL") {
		t.Errorf("report names no failed run:\n%s", report)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/wp2p/wp2p/internal/sim.(*Engine).pop":               "sim",
		"github.com/wp2p/wp2p/internal/ordset.(*Set[go.shape.int]).Add": "bt",
		"github.com/wp2p/wp2p/internal/mobility.(*Handoff).fire":        "wp2p",
		"github.com/wp2p/wp2p/internal/experiments.NewWorld":            "scenario",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "runtime",
		"aeshashbody":                             "runtime",
		"runtime.gcBgMarkWorker":                  "runtime",
		"sort.insertionSort":                      "other",
		"github.com/wp2p/wp2p/internal/check.(*Checker).afterStep": "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestFlatCPUFindsTheBusyFunction profiles a busy loop and checks that the
// decoder attributes most of the CPU to it and that the layer fold keeps
// every nanosecond.
func TestFlatCPUFindsTheBusyFunction(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	flat, err := flatCPU(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ns := range flat {
		total += ns
	}
	if busy := flat["github.com/wp2p/wp2p/perfbench.spin"]; total == 0 || float64(busy) < 0.5*float64(total) {
		t.Fatalf("spin has %d of %d profiled ns: %v", busy, total, flat)
	}
	byLayer := map[string]int64{}
	layerCPU(flat, byLayer, map[string]string{})
	var folded int64
	for _, ns := range byLayer {
		folded += ns
	}
	if folded != total || byLayer["other"] < flat["github.com/wp2p/wp2p/perfbench.spin"] {
		t.Errorf("fold lost CPU: %v of %d ns", byLayer, total)
	}
}
