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
// commits. The constants were captured before the clear-sky curve was
// hoisted out of synthesizeDay; a change to them is a re-baseline of every
// seeded output, not a refactor.
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
		tr, err := GenerateScenario(s, 8, 720, seed)
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

// Golden digests, captured at the commit before the clear-sky hoist.
const (
	goldenDefault      = "704e7ef7e93f67c49bdbd2934c01bb60d01938737d33fc26baea7d89b40fdc4f"
	goldenFleet        = "0e21d6a333127788daf23f7f2aa8ca53c779795c717c034bd6922ae295b63a36"
	goldenEvolveEpoch1 = "3a3c074e4aa9836f86ea8e3d0a2cb9645a4b806f38982f67d8f2925ddc96d0f6"
)

var goldenScenario = map[Scenario]string{
	ScenarioBase:         "bd7c2ade2bb1380f2b5061040cf452d2b6e86422d4e061f84af66570a24b99ad",
	ScenarioSunny:        "e13ea4c87db4d45b3bdd5b788887bf6da351ff0a06b422c2fb759d8bd0fae82a",
	ScenarioOvercast:     "b7ac773d03035ead35ca1ff93cfeafc05bd8220b5e5f752fb9b70178a4adca2a",
	ScenarioWinter:       "d3dc5b18755bbb09e0eff208959a44d57df2030b3c4e0aa6aa13e0584a9fef46",
	ScenarioStorageHeavy: "dbdbe0770f530ecae0defcbf8dd7fac4b594b1936f0679369f3642f51ab96999",
}
