package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"github.com/wp2p/wp2p/internal/experiments"
	"github.com/wp2p/wp2p/internal/scenario"
	"github.com/wp2p/wp2p/internal/stats"
)

// reference is one spec seed's recorded outputs.
type reference struct {
	// SpecSHA256 identifies the generated document the reference belongs
	// to; a benchmark whose generator changed must record afresh.
	SpecSHA256 string `json:"spec_sha256"`
	// Figure and Stats are a packet workload's full outputs, which every
	// run must reproduce exactly.
	Figure []experiments.Series `json:"figure,omitempty"`
	Stats  *stats.Snapshot      `json:"stats,omitempty"`
	// PacketT50/T90 are a crowd spec's completion times with every group
	// forced to packet fidelity: the truth fidelity_gap is measured against.
	PacketT50 float64 `json:"packet_t50_s,omitempty"`
	PacketT90 float64 `json:"packet_t90_s,omitempty"`
}

func specHash(doc []byte) string {
	h := sha256.Sum256(doc)
	return hex.EncodeToString(h[:])
}

func refPath(dir, workload string) string { return filepath.Join(dir, workload+".json") }

// loadRef reads the reference for one workload and spec seed, and checks
// that it was recorded from the same document.
func loadRef(dir string, w *workload, seed int64, doc []byte) (*reference, error) {
	data, err := os.ReadFile(refPath(dir, w.Name))
	if err != nil {
		return nil, fmt.Errorf("reading references: %w", err)
	}
	var refs map[string]*reference
	if err := json.Unmarshal(data, &refs); err != nil {
		return nil, fmt.Errorf("%s: %w", refPath(dir, w.Name), err)
	}
	r := refs[strconv.FormatInt(seed, 10)]
	if r == nil {
		return nil, fmt.Errorf("%s: no reference for spec seed %d", refPath(dir, w.Name), seed)
	}
	if r.SpecSHA256 != specHash(doc) {
		return nil, fmt.Errorf("%s: spec seed %d was recorded from another document; record the references again", refPath(dir, w.Name), seed)
	}
	return r, nil
}

// recordRefs runs every spec seed of the workload once, with invariant
// checking armed, and writes its references.
func recordRefs(dir string, w *workload, sz sizes) error {
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for seed := int64(1); seed <= refSeeds; seed++ {
		doc := encode(w.Spec(seed, sz))
		r := &reference{SpecSHA256: specHash(doc)}
		res, err := checkedRun(doc, scenario.Options{})
		if err != nil {
			return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
		}
		if w.Packet {
			r.Figure, r.Stats = res.Series, res.Stats
		}
		if w.Crowd {
			if !w.Packet {
				if res, err = checkedRun(doc, scenario.Options{Fidelity: scenario.FidelityPacket}); err != nil {
					return fmt.Errorf("%s seed %d, packet fidelity: %w", w.Name, seed, err)
				}
			}
			var ok50, ok90 bool
			r.PacketT50, ok50 = completionTime(res, 0.5)
			r.PacketT90, ok90 = completionTime(res, 0.9)
			if !ok50 || !ok90 {
				return fmt.Errorf("%s seed %d: under 90%% of the crowd completes", w.Name, seed)
			}
		}
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		fmt.Fprintf(&buf, "%q: %s", strconv.FormatInt(seed, 10), line)
		if seed < refSeeds {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("}\n")
	return os.WriteFile(refPath(dir, w.Name), buf.Bytes(), 0o644)
}

// checkedRun runs the document once with the invariant checker armed.
func checkedRun(doc []byte, opts scenario.Options) (*experiments.Result, error) {
	experiments.EnableChecking(checkEvery)
	defer experiments.DisableChecking()
	s := measureRun(func() (*experiments.Result, error) { return runSpec(doc, opts) })
	if s.Err != nil {
		return nil, s.Err
	}
	if n := experiments.CheckViolations(); n > 0 {
		return nil, fmt.Errorf("%d invariant violations", n)
	}
	return s.Res, nil
}

// diff describes how a run's outputs differ from want's, or returns "" when
// they are identical.
func diff(want, got *experiments.Result) string {
	if got == nil {
		return "no result"
	}
	if !sameJSON(want.Series, got.Series) {
		return "figure values differ"
	}
	if sameJSON(want.Stats, got.Stats) {
		return ""
	}
	if want.Stats == nil || got.Stats == nil {
		return "stats snapshot missing"
	}
	gotC := map[string]int64{}
	for _, c := range got.Stats.Counters {
		gotC[c.Name] = c.Value
	}
	for _, c := range want.Stats.Counters {
		if v, ok := gotC[c.Name]; !ok || v != c.Value {
			return fmt.Sprintf("counter %s = %d, reference %d", c.Name, v, c.Value)
		}
	}
	return "stats snapshot differs"
}

func sameJSON(a, b any) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}

// completionTime is the sim time in seconds at which a crowd figure's
// completed fraction first reaches q, interpolated linearly between samples
// (the crowd starts at fraction 0 at time 0). It reports false when the
// fraction never reaches q.
func completionTime(res *experiments.Result, q float64) (float64, bool) {
	if res == nil || len(res.Series) == 0 {
		return 0, false
	}
	s := res.Series[0]
	x0, y0 := 0.0, 0.0
	for i, y := range s.Y {
		x := s.X[i]
		if y >= q {
			return x0 + (q-y0)/(y-y0)*(x-x0), true
		}
		x0, y0 = x, y
	}
	return 0, false
}

// checkEvery is the invariant checker's sweep interval in events. The
// default of 4,096 makes a crowd run several times slower; one sweep per
// 65,536 events still sweeps a crowd run some thirty times.
const checkEvery = 1 << 16
