package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// traceDigest is SHA-256 over a trace's shape, every home's statics and the
// little-endian bits of every Gen/Load/Battery float, materializing a lazy
// trace first. Floats go in as bits, so -0 and +0 (and any last-digit drift)
// are different digests.
func traceDigest(tr *Trace) string {
	tr.Materialize()
	h := sha256.New()
	f64 := func(vs ...float64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	fmt.Fprintf(h, "%d homes, %d windows\n", len(tr.Homes), tr.Windows)
	f64(tr.StartHour)
	for i, home := range tr.Homes {
		fmt.Fprintf(h, "%s|%s\n", home.ID, home.Scenario)
		f64(home.SolarCapKW, home.BaseLoadKW, home.K, home.Epsilon, home.BatteryCapKWh)
		f64(tr.Gen[i]...)
		f64(tr.Load[i]...)
		f64(tr.Battery[i]...)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTraceGoldenDigest pins the generator's bytes (the udpx TestABI shape):
// "same seed twice" only proves a commit agrees with itself, while every
// seeded expectation downstream — oracle figures, ledger heads, the
// benchmark's exact matched-kWh — assumes the dataset does not drift between
// commits. The constants were re-captured when the load bells became a
// recurrence re-anchored hourly by math.Exp (type bell), which moved every
// Load and Battery float by rounding error and no Gen float
// (TestSynthesizeDayMatchesExpBells); a change to them is a re-baseline of
// every seeded output, not a refactor.
func TestTraceGoldenDigest(t *testing.T) {
	const seed = 20200425
	check := func(name, want string, tr *Trace, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := traceDigest(tr); got != want {
			t.Errorf("%s: digest %s, want %s", name, got, want)
		}
	}

	tr, err := Generate(Config{Homes: 32, Windows: 720, Seed: seed})
	check("default 32x720", goldenDefault, tr, err)

	for _, s := range Scenarios() {
		tr, err := scenarioTrace(s, 8, 720, seed)
		check("scenario "+string(s), goldenScenario[s], tr, err)
	}

	fc := FleetConfig{Coalitions: 6, HomesPerCoalition: 8, Windows: 720, Seed: seed}
	tr, err = GenerateFleet(fc)
	check("fleet 6x8 eager", goldenFleet, tr, err)
	fc.OnDemand = true
	tr, err = GenerateFleet(fc)
	check("fleet 6x8 on-demand", goldenFleet, tr, err)

	// One epoch of churn: epoch 1 holds survivors (statics kept, day redrawn
	// from the per-(epoch, home) stream) and joiners (statics from the join
	// stream).
	fc.OnDemand = false
	evo, err := Evolve(fc, ChurnConfig{Epochs: 2, JoinRate: 0.25, DepartRate: 0.15, FailRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	e1 := evo.Epochs[1]
	if len(e1.Joined) == 0 || len(e1.Departed)+len(e1.Failed) == 0 || len(e1.Trace.Homes) <= len(e1.Joined) {
		t.Fatalf("epoch 1 lacks joiners, leavers or survivors: %d joined, %d departed, %d failed, %d homes",
			len(e1.Joined), len(e1.Departed), len(e1.Failed), len(e1.Trace.Homes))
	}
	check("evolve epoch 1", goldenEvolveEpoch1, e1.Trace, nil)
}

// Golden digests, captured when the load bells became a recurrence.
const (
	goldenDefault      = "0f720c2f65ad252fa8c1ffe7c7b7da0de0544a755301f63a9abe8f976c0082be"
	goldenFleet        = "ec3c268c6eee55d68b18ed9504430d28b2c923824763b390485a8a7b572e26d6"
	goldenEvolveEpoch1 = "aa4b23b95cfed1f30799de36e5627b7726bb7f191bb708a0ed34e3e40092bbde"
)

var goldenScenario = map[Scenario]string{
	ScenarioBase:         "a3c7acec986036b7b48057a96ef721d48fad7c920a063b9afcb7a84c281c03e1",
	ScenarioSunny:        "137255968d08fcefea1b588cfa8ee244a91fe5a078066f317495b4fdfc2647df",
	ScenarioOvercast:     "146a794c551cada43f6bccf2b1877ba76ad4239b87209752c9a2c791a1b7d086",
	ScenarioWinter:       "f1d3cb0cfe14d86dd8c639a3a29fb759aa4c332e4003ded746168def94097092",
	ScenarioStorageHeavy: "45a3069399d3a3cf976f6df60cc0fcc9c0d7bdb18033799f770aa68b3dfab884",
}
