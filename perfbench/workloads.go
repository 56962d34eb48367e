package main

import (
	"encoding/json"
	"fmt"
)

// refSeeds is how many distinct inputs each workload has. A --seed n selects
// spec seed 1 + (n-1) mod refSeeds, so every seed the benchmark is given
// maps onto an input whose reference outputs are recorded under refs/.
const refSeeds = 16

// specSeed maps a benchmark seed onto the spec seed it generates.
func specSeed(n int64) int64 {
	return ((n-1)%refSeeds+refSeeds)%refSeeds + 1
}

// sizes fixes how big each workload's spec is. The benchmark runs at
// benchSizes; the tests run the same pipeline at tinySizes.
type sizes struct {
	Crowd      int    // flash-crowd leeches; seeds and mobiles scale with it
	CrowdHoriz string // flash-crowd horizon
	MobileHor  string // mobile-wlan horizon
	MobilePer  string // mobile-wlan IP-change period
	MobileJit  string // jitter on that period
	Mobiles    int    // mobile-wlan wireless peers; seeds and wired leeches scale with it
}

// benchSizes keeps one run of each workload near two seconds on a 2-core
// x86 host, so a 36-second window holds 15 to 20 runs for the median.
var benchSizes = sizes{
	Crowd:      640,
	CrowdHoriz: "2m",
	MobileHor:  "10m",
	MobilePer:  "2m",
	MobileJit:  "30s",
	Mobiles:    6,
}

// tinySizes runs every workload in well under a second.
var tinySizes = sizes{
	Crowd:      24,
	CrowdHoriz: "40s",
	MobileHor:  "90s",
	MobilePer:  "20s",
	MobileJit:  "5s",
	Mobiles:    2,
}

// workload is one named input of the benchmark.
type workload struct {
	Name string
	// Spec generates the wp2p.scenario.v1 document for a spec seed.
	Spec func(seed int64, sz sizes) map[string]any
	// Packet marks an all-packet-level workload: every run's figure and
	// stats snapshot must equal the recorded reference exactly.
	Packet bool
	// Crowd marks a sampled completed-fraction figure, from which t90 is
	// read.
	Crowd bool
}

// workloads are the benchmark's inputs. Each stresses a different mix of
// layers; BENCHMARK.json and README.md record why each was chosen and the
// layer mix measured on it.
var workloads = []workload{
	{
		Name:   "crowd-packet",
		Spec:   func(seed int64, sz sizes) map[string]any { return crowdSpec("crowd-packet", seed, sz, false) },
		Packet: true,
		Crowd:  true,
	},
	{
		Name:  "crowd-hybrid",
		Spec:  func(seed int64, sz sizes) map[string]any { return crowdSpec("crowd-hybrid", seed, sz, true) },
		Crowd: true,
	},
	{
		Name:   "mobile-wlan",
		Spec:   mobileSpec,
		Packet: true,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// crowdSpec is flash-crowd-large{,-hybrid}.json with the crowd shrunk to
// sz.Crowd and the seeds and mobiles shrunk in proportion (16 seeds and 32
// mobiles per 2,000 crowd peers). The figure is the crowd's completed
// fraction sampled every half second, which gives t50 and t90.
func crowdSpec(name string, seed int64, sz sizes, hybrid bool) map[string]any {
	seeds := map[string]any{
		"name": "seeds", "count": max(2, sz.Crowd/125), "role": "seed",
		"link": map[string]any{"kind": "wired", "up": "500KBps"},
	}
	crowd := map[string]any{
		"name": "crowd", "count": sz.Crowd, "deferred": true,
		"link": map[string]any{"kind": "wired", "up": "100KBps"},
	}
	peers := []any{seeds, crowd}
	events := []any{map[string]any{"at": "5s", "action": "join", "peers": "crowd"}}
	if hybrid {
		seeds["fidelity"] = "flow"
		crowd["fidelity"] = "flow"
		peers = append(peers, map[string]any{
			"name": "mobiles", "count": max(2, sz.Crowd/62), "deferred": true,
			"link": map[string]any{"kind": "wireless", "rate": "400KBps"},
			"mobility": map[string]any{
				"period": "45s", "ip_base": 20000000, "ip_stride": 1000, "reaction": "oblivious",
			},
		})
		events = append(events, map[string]any{"at": "5s", "action": "join", "peers": "mobiles"})
	}
	return map[string]any{
		"schema":   "wp2p.scenario.v1",
		"name":     name,
		"duration": sz.CrowdHoriz,
		"seed":     seed,
		"workload": map[string]any{
			"protocol": "bt",
			"torrent":  map[string]any{"size_bytes": 262144},
		},
		"peers":   peers,
		"events":  events,
		"measure": map[string]any{"peers": "crowd", "metric": "completed_frac", "sample": "500ms"},
	}
}

// mobileSpec is the paper's regime: wired seeds and leeches with wireless
// mobiles at 400 KB/s, BER 1e-5, changing IP every MobilePer±MobileJit. It
// runs twice, as the default client (task restart on an address change) and
// as full wP2P (AM, LIHD, MF, RR, identity retention).
func mobileSpec(seed int64, sz sizes) map[string]any {
	return map[string]any{
		"schema":   "wp2p.scenario.v1",
		"name":     "mobile-wlan",
		"duration": sz.MobileHor,
		"seed":     seed,
		"workload": map[string]any{
			"protocol": "bt",
			"torrent":  map[string]any{"size_bytes": 268435456},
		},
		"peers": []any{
			map[string]any{
				"name": "seeds", "count": max(1, sz.Mobiles/3), "role": "seed",
				"link": map[string]any{"kind": "wired", "up": "300KBps"},
			},
			map[string]any{
				"name": "leeches", "count": max(1, sz.Mobiles*2/3),
				"link": map[string]any{"kind": "wired", "up": "100KBps"},
			},
			map[string]any{
				"name": "mobiles", "count": sz.Mobiles,
				"link": map[string]any{"kind": "wireless", "rate": "400KBps", "ber": 1e-5},
				"mobility": map[string]any{
					"period": sz.MobilePer, "jitter": sz.MobileJit,
					"ip_base": 20000000, "ip_stride": 1000, "reaction": "restart",
				},
			},
		},
		"measure": map[string]any{"peers": "mobiles", "metric": "download_kbps"},
		"series": []any{
			map[string]any{"label": "default", "set": map[string]any{}},
			map[string]any{"label": "wp2p", "set": map[string]any{
				"peers[2].wp2p": map[string]any{
					"am": true, "lihd": map[string]any{"umax": "400KBps"},
					"mf": true, "rr": true, "retain_identity": true,
				},
				"peers[2].mobility.reaction": "wp2p",
			}},
		},
	}
}

// setupSpec is spec with a 1 ns horizon: loading it and running it to that
// horizon validates the document and builds every world, and simulates
// nothing. The sampled measure goes because its period would exceed the
// horizon; the worlds it builds are the same.
func setupSpec(spec map[string]any) map[string]any {
	out := make(map[string]any, len(spec))
	for k, v := range spec {
		out[k] = v
	}
	out["duration"] = "1ns"
	m := map[string]any{}
	for k, v := range spec["measure"].(map[string]any) {
		if k != "sample" {
			m[k] = v
		}
	}
	out["measure"] = m
	return out
}

// encode renders a generated spec as the JSON document scenario.Load reads.
func encode(spec map[string]any) []byte {
	b, err := json.Marshal(spec)
	if err != nil {
		panic(err) // the generators build only JSON-encodable values
	}
	return b
}
