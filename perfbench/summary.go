package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strings"

	"github.com/wp2p/wp2p/internal/stats"
)

// quartiles returns the first quartile, median and third quartile of v, by
// the method of Python's statistics.quantiles(v, n=4) (the "exclusive"
// default), so that the benchmark's spreads match those computed from its
// output. Fewer than two values give that value (or 0) for all three.
func quartiles(v []float64) (q1, med, q3 float64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	n := len(d)
	if n%2 == 1 {
		med = d[n/2]
	} else {
		med = (d[n/2-1] + d[n/2]) / 2
	}
	if n < 2 {
		return med, med, med
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work has no unit
// cost).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counts flattens a snapshot's counters and gauges into one lookup table;
// names absent from the snapshot read as 0.
func counts(s *stats.Snapshot) map[string]float64 {
	c := map[string]float64{}
	if s == nil {
		return c
	}
	for _, v := range s.Counters {
		c[v.Name] = float64(v.Value)
	}
	for _, v := range s.Gauges {
		c[v.Name] = float64(v.Value)
	}
	return c
}

// stamp identifies the machine and the inputs a result came from, so that
// results from different machines are never compared unnoticed.
type stamp struct {
	Go         string              `json:"go"`
	GOOS       string              `json:"goos"`
	GOARCH     string              `json:"goarch"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	NumCPU     int                 `json:"nproc"`
	CPU        string              `json:"cpu_model"`
	Workload   string              `json:"workload"`
	Seed       int64               `json:"seed"`
	SpecSeed   int64               `json:"spec_seed"`
	Trace      int                 `json:"trace"`
	Fold       map[string][]string `json:"fold"`
	Folded     map[string]string   `json:"packages_folded,omitempty"`
}

func envStamp(cfg config, specSeed int64, folded map[string]string) stamp {
	fold := map[string][]string{
		"runtime": {"runtime", "runtime/internal/*", "internal/runtime/*", "aeshash*"},
		"other":   {"everything else"},
	}
	for _, pkg := range sortedKeys(layerOfPackage) {
		l := layerOfPackage[pkg]
		fold[l] = append(fold[l], internalPrefix+pkg)
	}
	return stamp{
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		Workload:   cfg.w.Name,
		Seed:       cfg.seed,
		SpecSeed:   specSeed,
		Trace:      btoi(cfg.trace),
		Fold:       fold,
		Folded:     folded,
	}
}

// cpuModel reads the processor's model name from /proc/cpuinfo, or returns
// "unknown" where there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
