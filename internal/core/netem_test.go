package core

import (
	"context"
	"testing"
	"time"

	"github.com/pem-go/pem/internal/market"
	"github.com/pem-go/pem/internal/netem"
	"github.com/pem-go/pem/internal/paillier"
)

// netemConfig is testConfig over an emulated topology.
func netemConfig(seed int64, topology string) Config {
	cfg := testConfig(seed)
	cfg.Network = topology
	return cfg
}

// netemInputs is a mixed coalition large enough that both the aggregations
// and the pairwise distribution have real fan-out.
func netemInputs(n int) []market.WindowInput {
	inputs := make([]market.WindowInput, n)
	for i := range inputs {
		if i%2 == 0 {
			inputs[i] = market.WindowInput{Generation: 0.30 + float64(i)*0.01, Load: 0.10}
		} else {
			inputs[i] = market.WindowInput{Generation: 0.00, Load: 0.20 + float64(i)*0.01}
		}
	}
	return inputs
}

// windowFingerprint compresses everything a seeded emulated run must
// reproduce bit-identically: market outcome and virtual-network metrics.
type windowFingerprint struct {
	kind     market.Kind
	price    float64
	trades   int
	bytes    int64
	messages int64
	latency  time.Duration
	rounds   int
}

func fingerprint(res *WindowResult) windowFingerprint {
	return windowFingerprint{
		kind:     res.Kind,
		price:    res.Price,
		trades:   len(res.Trades),
		bytes:    res.BytesOnWire,
		messages: res.Messages,
		latency:  res.VirtualLatency,
		rounds:   res.Rounds,
	}
}

// runEmulatedDay runs `windows` windows under the given config over a crypto
// pool of `workers` (0: the engine's own) — pipelined through StreamWindows,
// or one RunWindow at a time — and returns the per-window fingerprints.
func runEmulatedDay(t *testing.T, cfg Config, pipelined bool, workers, nAgents, windows int) []windowFingerprint {
	t.Helper()
	agents := testAgents(nAgents)
	var res Resources
	if workers > 0 {
		res.Workers = paillier.NewWorkers(workers)
	}
	eng, err := NewEngineWith(cfg, agents, res)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	jobs := make([]WindowJob, windows)
	for w := range jobs {
		jobs[w] = WindowJob{Window: w, Inputs: netemInputs(nAgents)}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	var results []*WindowResult
	if pipelined {
		if results, err = eng.StreamWindows(ctx, jobs, nil); err != nil {
			t.Fatal(err)
		}
	} else {
		for _, job := range jobs {
			res, err := eng.RunWindow(ctx, job.Window, job.Inputs)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
	}
	prints := make([]windowFingerprint, len(results))
	for i, res := range results {
		prints[i] = fingerprint(res)
	}
	return prints
}

// TestEmulatedRunBitIdenticalAcrossConcurrency is the netem determinism
// guarantee at the engine level: a seeded run over an emulated WAN reports
// identical market outcomes *and* identical virtual-latency/round metrics
// whether its windows run one at a time or pipelined, and however many
// crypto workers run.
func TestEmulatedRunBitIdenticalAcrossConcurrency(t *testing.T) {
	base := netemConfig(42, netem.TopologyWAN)

	sequential := runEmulatedDay(t, base, false, 0, 6, 3)
	for _, w := range sequential {
		if w.latency == 0 || w.rounds == 0 || w.messages == 0 {
			t.Fatalf("emulated window missing virtual metrics: %+v", w)
		}
	}

	pipelined := runEmulatedDay(t, base, true, 4, 6, 3)

	for w := range sequential {
		if sequential[w] != pipelined[w] {
			t.Errorf("window %d diverged across concurrency:\n  seq  %+v\n  pipe %+v",
				w, sequential[w], pipelined[w])
		}
	}
}

// TestTreeBeatsRingOnWAN is the headline communication-cost result: on a
// high-latency topology the log-depth aggregation tree must show a shorter
// critical path (fewer rounds, less virtual latency) than the paper's
// sequential ring, with the market outcome unchanged.
func TestTreeBeatsRingOnWAN(t *testing.T) {
	const n = 8
	agents := testAgents(n)
	inputs := netemInputs(n)

	ringCfg := netemConfig(11, netem.TopologyWAN)
	ringCfg.Aggregation = AggregationRing
	ring := runOneWindow(t, ringCfg, agents, inputs)

	treeCfg := netemConfig(11, netem.TopologyWAN)
	treeCfg.Aggregation = AggregationTree
	tree := runOneWindow(t, treeCfg, agents, inputs)

	if ring.Kind != tree.Kind || ring.Price != tree.Price || len(ring.Trades) != len(tree.Trades) {
		t.Fatalf("topologies disagree on the market: %v/%v vs %v/%v", ring.Kind, ring.Price, tree.Kind, tree.Price)
	}
	if tree.Rounds >= ring.Rounds {
		t.Errorf("tree rounds %d not below ring rounds %d", tree.Rounds, ring.Rounds)
	}
	if tree.VirtualLatency >= ring.VirtualLatency {
		t.Errorf("tree latency %v not below ring latency %v", tree.VirtualLatency, ring.VirtualLatency)
	}
}

// TestVirtualClockDoesNotSleep: an emulated-WAN window owes seconds of
// virtual latency but must complete in wall-clock time comparable to the
// in-memory bus — the whole point of the event-time clock.
func TestVirtualClockDoesNotSleep(t *testing.T) {
	res := runOneWindow(t, netemConfig(3, netem.TopologyWAN), testAgents(6), netemInputs(6))
	if res.VirtualLatency < 100*time.Millisecond {
		t.Fatalf("WAN window virtual latency %v implausibly low", res.VirtualLatency)
	}
	if res.Duration > res.VirtualLatency {
		t.Errorf("wall clock %v exceeded virtual latency %v: emulation appears to really sleep",
			res.Duration, res.VirtualLatency)
	}
}

// TestEmulatedWindowNumberReuse: the engine releases a window's emulation
// state when it completes, so a caller reusing a window number gets that
// run's own metrics — not maxima inherited (and inflated) from the previous
// run under the same number.
func TestEmulatedWindowNumberReuse(t *testing.T) {
	agents := testAgents(4)
	inputs := netemInputs(4)
	eng, err := NewEngine(netemConfig(5, netem.TopologyWAN), agents)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	first, err := eng.RunWindow(ctx, 0, inputs)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.RunWindow(ctx, 0, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if first.VirtualLatency != second.VirtualLatency || first.Rounds != second.Rounds {
		t.Errorf("window-number reuse changed virtual metrics: %v/%d vs %v/%d",
			first.VirtualLatency, first.Rounds, second.VirtualLatency, second.Rounds)
	}
}

// TestNetworkValidation: unknown topologies fail before any key material is
// generated.
func TestNetworkValidation(t *testing.T) {
	cfg := netemConfig(1, "dialup")
	if _, err := NewEngine(cfg, testAgents(3)); err == nil {
		t.Fatal("unknown topology accepted")
	}
}
