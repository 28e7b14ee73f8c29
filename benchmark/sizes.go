package main

import (
	"github.com/pem-go/pem"
	"github.com/pem-go/pem/internal/ot"
)

// sizes fixes every workload's shape. fullSizes is the benchmark; the test
// file carries a tiny table of the same shape. There is deliberately no
// flag for any of this: two result files are comparable because they ran
// the same inputs.
type sizes struct {
	// day.* — one market, one seeded day trace.
	homes      int
	dayWindows int
	startHour  float64 // 0 = the dataset default (07:00)
	keyBits    int
	// day.paillier runs windows [paillierLo, paillierHi); day.hybrid all.
	paillierLo, paillierHi int
	// Unmeasured warm-up windows at the head of each day workload's order.
	paillierWarmup, hybridWarmup int
	// The netem replay runs windows [netemLo, netemHi) of day.hybrid on "wan".
	netemLo, netemHi int

	// grid.live-wal.
	liveBlocks, liveHomesPerBlock int
	liveWindows, liveEpochs       int
	liveCoalitions                int
	churn                         pem.ChurnConfig

	// fleet.tiered — fleetCoalitions two-home coalitions per day.
	fleetCoalitions int
	fleetDays       int
	tiers           []int
	// Every fleetSample-th coalition's residual is recomputed by the oracle.
	fleetSample int
	// One window-latency sample is taken per fleetChunk coalitions delivered.
	fleetChunk int

	// Layer probes.
	probeCalls int // paillier op calls
	probeKeys  int // seeded GenerateKey calls
	probeReps  int // gc/ot repetitions
	otGroup    *ot.Group

	// setupReps is how many times a set-up is repeated in one run; setup_s
	// is the median.
	setupReps int
}

var fullSizes = sizes{
	homes: 32, dayWindows: 720, keyBits: 1024,
	paillierLo: 240, paillierHi: 480,
	paillierWarmup: 64, hybridWarmup: 128,
	netemLo: 330, netemHi: 390,

	liveBlocks: 6, liveHomesPerBlock: 8, liveWindows: 60, liveEpochs: 8, liveCoalitions: 6,
	churn: pem.ChurnConfig{JoinRate: 0.20, DepartRate: 0.12, FailRate: 0.08},

	fleetCoalitions: 50_000, fleetDays: 3, tiers: []int{8, 4, 4}, fleetSample: 500, fleetChunk: 5000,

	probeCalls: 200, probeKeys: 8, probeReps: 5,
	otGroup: ot.DefaultGroup(),

	setupReps: 5,
}

// defaultSeed is the paper's conference date; -seed replaces it. The seed
// reaches only the generators (dataset, churn, partition, Config.Seed),
// never a code path.
const defaultSeed = 20200425
