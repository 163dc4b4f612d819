package workload

import (
	"fmt"
)

// ColorLines is the number of L2 lines in one cache color on the POWER5
// geometry (15360 lines / 16 colors). Working-set sizes are chosen in
// units of colors so each application's MRC knees land where Figure 3 of
// the paper puts them.
const ColorLines = 960

// forever is the phase length used for stationary applications.
const forever = 1 << 40

// fillerLines is the footprint of the L1-resident filler loop standing in
// for each application's cache-friendly majority of references. At 200
// lines (≈3 per L1 set) it hits the L1 essentially always, so it creates
// no PMU events; its store write-throughs keep it warm in the L2, where
// it occupies space the trace never sees.
const fillerLines = 200

// fill appends the L1-resident filler so weights sum to 1.
func fill(comps []Component) []Component {
	sum := 0.0
	for _, c := range comps {
		sum += c.Weight
	}
	if sum >= 1 {
		panic(fmt.Sprintf("workload: component weights %.4f leave no filler", sum))
	}
	return append(comps, Component{Weight: 1 - sum, Kind: Loop, Lines: fillerLines})
}

// registry holds the 30 applications of the paper's evaluation, in
// Table 2 order: SPECjbb2000, then SPECcpu2000, then SPECcpu2006. Each
// shape's knees/tails are read off Figure 3 (real-curve top and bottom
// MPKI and knee positions); StoreFrac and the stream share steer the
// v-offset sign per Table 2 column h, and Loop-vs-Chase smalls steer the
// prefetch conversion rate of column e.
var registry = []Config{
	// jbb: 6 → 1.5 MPKI, gradual.
	appShape{memFrac: 0.30, storeFrac: 0.25,
		smallKind: Chase, smallLines: 700, smallW: 0.040,
		knees:    []Knee{{2, 1.5}, {5, 1.5}, {9, 1.0}},
		tailMPKI: 1.5,
	}.config("jbb"),

	// --- SPECcpu2000 ---

	// ammp: problematic in the paper (distance 1.02); store-heavy random
	// traffic the trace half-misses.
	appShape{memFrac: 0.30, storeFrac: 0.40,
		smallKind: Chase, smallLines: 700, smallW: 0.040,
		knees: []Knee{{2, 1.6}, {6, 1.1}, {10, 1.0}, {12.5, 1.4},
			{14, 1.2}},
		tailMPKI: 1.0,
	}.config("ammp"),
	// applu: gentle 3 → 1, prefetch-friendly (negative shift).
	appShape{memFrac: 0.30, storeFrac: 0.10,
		smallKind: Loop, smallLines: 300, smallW: 0.040,
		knees:      []Knee{{1.2, 0.3}},
		streamMPKI: 4.0, tailMPKI: 0.3,
	}.config("applu"),
	// apsi: problematic — phases shorter than a probing period (Table 2
	// column d: 5 M instructions), so a capture spans many phases.
	phasedShapes("apsi", []uint64{5000, 5000}, []appShape{
		{memFrac: 0.30, storeFrac: 0.25,
			smallKind: Chase, smallLines: 700, smallW: 0.030,
			knees:    []Knee{{2, 4}, {4, 2}},
			tailMPKI: 1.5},
		{memFrac: 0.30, storeFrac: 0.25,
			smallKind: Chase, smallLines: 700, smallW: 0.030,
			knees:      []Knee{{10, 4}},
			streamMPKI: 1.5},
	}),
	// art: tall curve with knees at 5–8 colors; problematic (+17.5
	// shift) — store-heavy and miss-dense, so overlap drops bite.
	appShape{memFrac: 0.32, storeFrac: 0.35,
		knees:    []Knee{{5, 12}, {6, 12}, {7, 10}, {8, 9}},
		tailMPKI: 2, tailLines: 60_000,
	}.config("art"),
	// bzip2: shallow 3 → 1.
	appShape{memFrac: 0.30, storeFrac: 0.20,
		smallKind: Chase, smallLines: 700, smallW: 0.040,
		knees:    []Knee{{2, 1.0}, {4, 1.0}},
		tailMPKI: 1.0,
	}.config("bzip2"),
	// crafty: tiny working set, near-flat ≈0.4 MPKI.
	appShape{memFrac: 0.30, storeFrac: 0.20,
		smallKind: Chase, smallLines: 700, smallW: 0.100,
		tailMPKI: 0.4,
	}.config("crafty"),
	// equake: 4 → 1.5 with heavy stream content (42 % conversion).
	appShape{memFrac: 0.30, storeFrac: 0.15,
		smallKind: Loop, smallLines: 800, smallW: 0.030,
		knees:      []Knee{{2, 1.0}, {5, 0.8}},
		streamMPKI: 5.0, tailMPKI: 0.3,
	}.config("equake"),
	// gap: ≈1 MPKI, stream-dominated L2 traffic (76 % conversion).
	appShape{memFrac: 0.30, storeFrac: 0.15,
		smallKind: Loop, smallLines: 800, smallW: 0.050,
		streamMPKI: 0.8, tailMPKI: 0.2,
	}.config("gap"),
	// gzip: 2 → 0.5 with a small working set.
	appShape{memFrac: 0.30, storeFrac: 0.20,
		smallKind: Chase, smallLines: 700, smallW: 0.050,
		knees:    []Knee{{2, 1.2}},
		tailMPKI: 0.4,
	}.config("gzip"),
	// mcf: the paper's showcase. Two alternating phases (Figure 2a): a
	// high-miss staircase 65 → 10 and a milder phase.
	phasedShapes("mcf", []uint64{20_000_000, 10_000_000}, []appShape{
		{memFrac: 0.30, storeFrac: 0.30,
			knees:    []Knee{{1.5, 14}, {3, 12}, {5, 10}, {8, 9}, {11, 8}, {14, 7}},
			tailMPKI: 10, streamMPKI: 2},
		{memFrac: 0.30, storeFrac: 0.30,
			knees:    []Knee{{2, 6}, {6, 4}},
			tailMPKI: 5, tailLines: 100_000},
	}),
	// mesa: near-zero flat.
	appShape{memFrac: 0.30, storeFrac: 0.15,
		smallKind: Chase, smallLines: 700, smallW: 0.080,
		tailMPKI: 0.2,
	}.config("mesa"),
	// mgrid: 2.5 → 1, stream-heavy (54 % conversion, −1.2 shift).
	appShape{memFrac: 0.30, storeFrac: 0.10,
		smallKind: Loop, smallLines: 800, smallW: 0.030,
		knees:      []Knee{{3, 0.8}},
		streamMPKI: 1.0, tailMPKI: 0.3,
	}.config("mgrid"),
	// parser: 3 → 1.
	appShape{memFrac: 0.30, storeFrac: 0.20,
		smallKind: Chase, smallLines: 700, smallW: 0.040,
		knees:    []Knee{{2, 1.2}, {5, 0.8}},
		tailMPKI: 1.0,
	}.config("parser"),
	// sixtrack: low, 0.8 → 0.3.
	appShape{memFrac: 0.30, storeFrac: 0.15,
		smallKind: Chase, smallLines: 700, smallW: 0.070,
		knees:    []Knee{{2, 0.4}},
		tailMPKI: 0.3,
	}.config("sixtrack"),
	// swim: problematic. Long-distance reuse near the stack capacity plus
	// prefetch-covered sequential sweeps: the 160 k log undersamples the
	// tail and the calculated curve comes out too flat (Figure 4a).
	appShape{memFrac: 0.30, storeFrac: 0.25,
		smallKind: Chase, smallLines: 700, smallW: 0.020,
		knees:      []Knee{{13, 6}, {15, 5}},
		streamMPKI: 8,
	}.config("swim"),
	// twolf: 22 → ≈1 with the knee spread across 1–14 colors (+2.2
	// shift).
	appShape{memFrac: 0.30, storeFrac: 0.30,
		smallKind: Chase, smallLines: 700, smallW: 0.030,
		knees: []Knee{{1.5, 3}, {3, 3}, {5, 2.5}, {7, 2.5}, {9, 2},
			{11, 2.5}, {12.5, 3}, {14, 3}},
		tailMPKI: 1.0,
	}.config("twolf"),
	// vortex: 1 → 0.2.
	appShape{memFrac: 0.30, storeFrac: 0.25,
		smallKind: Chase, smallLines: 700, smallW: 0.060,
		knees:    []Knee{{2, 0.6}},
		tailMPKI: 0.2,
	}.config("vortex"),
	// vpr: 4 → 0.5, knees out to 11 colors.
	appShape{memFrac: 0.30, storeFrac: 0.20,
		smallKind: Chase, smallLines: 700, smallW: 0.030,
		knees: []Knee{{2, 1.2}, {5, 0.8}, {8, 0.7}, {11, 0.8},
			{12.5, 0.8}, {14, 0.8}},
		tailMPKI: 0.4,
	}.config("vpr"),
	// wupwise: ≈1.5 flat, stream-heavy.
	appShape{memFrac: 0.30, storeFrac: 0.10,
		smallKind: Loop, smallLines: 800, smallW: 0.040,
		streamMPKI: 1.2, tailMPKI: 0.2,
	}.config("wupwise"),

	// --- SPECcpu2006 ---

	// astar: 3 → 1.
	appShape{memFrac: 0.30, storeFrac: 0.20,
		smallKind: Chase, smallLines: 700, smallW: 0.040,
		knees:    []Knee{{3, 1.5}},
		tailMPKI: 0.8,
	}.config("astar"),
	// bwaves: ≈2 flat.
	appShape{memFrac: 0.30, storeFrac: 0.10,
		smallKind: Chase, smallLines: 700, smallW: 0.040,
		streamMPKI: 1.8,
	}.config("bwaves"),
	// bzip2 2k6: 5 → 2.
	appShape{memFrac: 0.30, storeFrac: 0.20,
		smallKind: Chase, smallLines: 700, smallW: 0.040,
		knees:    []Knee{{3, 2}, {6, 1}},
		tailMPKI: 1.5,
	}.config("bzip2_2k6"),
	// gromacs: 1 → 0.3.
	appShape{memFrac: 0.30, storeFrac: 0.15,
		smallKind: Chase, smallLines: 700, smallW: 0.050,
		knees:    []Knee{{2, 0.5}},
		tailMPKI: 0.3,
	}.config("gromacs"),
	// libquantum: pure stream — flat calculated curve, 0 % stack hits,
	// the large negative shift of Table 2 (prefetch covers the stream on
	// the real machine).
	appShape{memFrac: 0.30, storeFrac: 0.05,
		streamMPKI: 20,
	}.config("libquantum"),
	// mcf 2k6: 22 → 8 with the paper's largest positive shift (+30):
	// extremely store-heavy.
	appShape{memFrac: 0.30, storeFrac: 0.45,
		smallKind: Chase, smallLines: 700, smallW: 0.020,
		knees:    []Knee{{2, 5}, {5, 4}, {9, 3.5}},
		tailMPKI: 8, tailLines: 150_000,
	}.config("mcf_2k6"),
	// omnetpp: problematic (−15.8 shift): a stream the prefetcher hides
	// entirely plus a slow decline.
	appShape{memFrac: 0.30, storeFrac: 0.10,
		knees:      []Knee{{3, 2}, {8, 2}},
		streamMPKI: 12, tailMPKI: 3,
	}.config("omnetpp"),
	// povray: essentially zero everywhere.
	appShape{memFrac: 0.30, storeFrac: 0.20,
		smallKind: Chase, smallLines: 700, smallW: 0.120,
		tailMPKI: 0.1,
	}.config("povray"),
	// xalancbmk: 3 → 0.5, store-leaning (+2.1 shift).
	appShape{memFrac: 0.30, storeFrac: 0.35,
		smallKind: Chase, smallLines: 700, smallW: 0.030,
		knees:    []Knee{{2, 1.5}, {5, 1.0}},
		tailMPKI: 0.5,
	}.config("xalancbmk"),
	// zeusmp: 2 → 1.
	appShape{memFrac: 0.30, storeFrac: 0.15,
		smallKind: Chase, smallLines: 700, smallW: 0.030,
		knees:      []Knee{{3, 0.6}},
		streamMPKI: 0.8, tailMPKI: 0.3,
	}.config("zeusmp"),
}

var byName = func() map[string]Config {
	m := make(map[string]Config, len(registry))
	for _, c := range registry {
		if _, dup := m[c.Name]; dup {
			panic("workload: duplicate app " + c.Name)
		}
		m[c.Name] = c
	}
	return m
}()

// Names returns the application names in Table 2 order.
func Names() []string {
	out := make([]string, len(registry))
	for i, c := range registry {
		out[i] = c.Name
	}
	return out
}

// ByName returns the configuration of a named application.
func ByName(name string) (Config, error) {
	c, ok := byName[name]
	if !ok {
		return Config{}, fmt.Errorf("workload: unknown application %q", name)
	}
	return c, nil
}

// MustByName is ByName for static names; it panics on unknown names.
func MustByName(name string) Config {
	c, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return c
}
