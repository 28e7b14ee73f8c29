package main

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"time"

	"github.com/pem-go/pem"
	"github.com/pem-go/pem/internal/gc"
	"github.com/pem-go/pem/internal/ot"
	"github.com/pem-go/pem/internal/paillier"
	"github.com/pem-go/pem/internal/transport"
)

// Layer probes: workload-independent timings of the exported primitives the
// window protocols are built from, on seeded inputs. Every traced run makes
// them, so each workload's per-layer report is complete; the interaction
// predictions in the README say which workload a change to each should and
// should not move.

// probeLayers runs every probe and records its metrics on r.
func probeLayers(ctx context.Context, r *report, sz sizes, seed int64, tr *tracer) error {
	root := tr.begin(0, "bench", "probes", -1)
	defer tr.end(root)
	for _, p := range []struct {
		layer string
		run   func(context.Context, *report, sizes, int64) error
	}{
		{"paillier", probePaillier},
		{"gc", probeGC},
		{"ot", probeOT},
		{"netem", probeNetem},
	} {
		id := tr.begin(root, p.layer, "probe", -1)
		err := p.run(ctx, r, sz, seed)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s probe: %w", p.layer, err)
		}
	}
	return nil
}

// probePaillier times the four homomorphic operations on one seeded key,
// and key generation itself.
func probePaillier(_ context.Context, r *report, sz sizes, seed int64) error {
	rnd := rand.New(rand.NewSource(seed))
	keygen, err := timeCalls(sz.probeKeys, ms, func(int) error {
		_, err := paillier.GenerateKey(rnd, sz.keyBits)
		return err
	})
	if err != nil {
		return err
	}
	sk, err := paillier.GenerateKey(rnd, sz.keyBits)
	if err != nil {
		return err
	}
	pk := &sk.PublicKey

	n := sz.probeCalls
	plain := make([]*big.Int, n)
	scalar := make([]*big.Int, n)
	for i := range plain {
		// Magnitudes of the protocol's own operands: 40-bit masked energy
		// sums and 64-bit fixed-point reciprocals.
		plain[i] = big.NewInt(rnd.Int63n(1 << 40))
		scalar[i] = new(big.Int).SetUint64(rnd.Uint64())
	}
	cts := make([]*paillier.Ciphertext, n)
	encrypt, err := timeCalls(n, us, func(i int) (err error) {
		cts[i], err = pk.Encrypt(rnd, plain[i])
		return err
	})
	if err != nil {
		return err
	}
	decrypt, err := timeCalls(n, us, func(i int) error {
		m, err := sk.Decrypt(cts[i])
		if err == nil && m.Cmp(plain[i]) != 0 {
			err = fmt.Errorf("decrypt round trip: got %v, want %v", m, plain[i])
		}
		return err
	})
	if err != nil {
		return err
	}
	scalarMul, err := timeCalls(n, us, func(i int) error {
		_, err := pk.ScalarMul(cts[i], scalar[i])
		return err
	})
	if err != nil {
		return err
	}
	add, err := timeCalls(n, us, func(i int) error {
		_, err := pk.Add(cts[i], cts[(i+1)%n])
		return err
	})
	if err != nil {
		return err
	}
	r.set("paillier.keygen_ms", median(keygen))
	r.set("paillier.encrypt_us", median(encrypt))
	r.set("paillier.decrypt_us", median(decrypt))
	r.set("paillier.scalarmul_us", median(scalarMul))
	r.set("paillier.add_us", median(add))
	return nil
}

// compareBits is the width of Protocol 2's Rb/Rs comparator.
const compareBits = 64

// probeGC times garbling and evaluating the 64-bit comparator, and one
// whole SecureCompare pair over an in-memory bus.
func probeGC(ctx context.Context, r *report, sz sizes, seed int64) error {
	rnd := rand.New(rand.NewSource(seed))
	circ, err := gc.BuildGreaterThan(compareBits)
	if err != nil {
		return err
	}
	var (
		garbled *gc.Garbled
		asg     *gc.Assignment
	)
	garble, err := timeCalls(sz.probeCalls, us, func(int) (err error) {
		garbled, asg, err = gc.Garble(circ, gc.Options{Random: rnd})
		return err
	})
	if err != nil {
		return err
	}
	left, right := rnd.Uint64(), rnd.Uint64()
	gl := make([]gc.Label, compareBits)
	el := make([]gc.Label, compareBits)
	for i := 0; i < compareBits; i++ {
		gl[i] = asg.Garbler[i][left>>uint(i)&1]
		el[i] = asg.Evaluator[i][right>>uint(i)&1]
	}
	evaluate, err := timeCalls(sz.probeCalls, us, func(int) error {
		out, err := gc.Evaluate(circ, garbled, gl, el, true)
		if err != nil {
			return err
		}
		bits, err := gc.DecodeOutputs(garbled, out)
		if err == nil && bits[0] != (left > right) {
			err = fmt.Errorf("comparator says %v for %d > %d", bits[0], left, right)
		}
		return err
	})
	if err != nil {
		return err
	}

	bus := transport.NewBus(nil)
	a, b := bus.MustRegister("garbler"), bus.MustRegister("evaluator")
	defer a.Close()
	defer b.Close()
	compare, err := timeCalls(sz.probeReps, ms, func(i int) error {
		session := fmt.Sprintf("probe/%d", i)
		x, y := rnd.Uint64(), rnd.Uint64()
		// Each side gets its own stream: the two run concurrently.
		ra, rb := rand.New(rand.NewSource(rnd.Int63())), rand.New(rand.NewSource(rnd.Int63()))
		var wg sync.WaitGroup
		var eres gc.CompareResult
		var eerr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			eres, eerr = gc.SecureCompareEvaluator(ctx, b, "garbler", session, y, compareBits, gc.ProtocolOptions{Group: sz.otGroup, Random: rb})
		}()
		gres, gerr := gc.SecureCompareGarbler(ctx, a, "evaluator", session, x, compareBits, gc.ProtocolOptions{Group: sz.otGroup, Random: ra})
		wg.Wait()
		if gerr != nil {
			return gerr
		}
		if eerr != nil {
			return eerr
		}
		if want := x > y; gres != eres || (gres == gc.LeftGreater) != want {
			return fmt.Errorf("secure compare of %d > %d: garbler %v, evaluator %v", x, y, gres, eres)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("gc.garble_us", median(garble))
	r.set("gc.evaluate_us", median(evaluate))
	r.set("gc.compare_ms", median(compare))
	return nil
}

// probeOT times one batch of 64 base OTs — the comparator's label transfer.
func probeOT(ctx context.Context, r *report, sz sizes, seed int64) error {
	rnd := rand.New(rand.NewSource(seed))
	bus := transport.NewBus(nil)
	a, b := bus.MustRegister("sender"), bus.MustRegister("receiver")
	defer a.Close()
	defer b.Close()
	base, err := timeCalls(sz.probeReps, ms, func(i int) error {
		session := fmt.Sprintf("probe/%d", i)
		pairs := make([]ot.Pair, compareBits)
		choices := make([]bool, compareBits)
		for j := range pairs {
			pairs[j] = ot.Pair{M0: make([]byte, ot.KeySize), M1: make([]byte, ot.KeySize)}
			rnd.Read(pairs[j].M0)
			rnd.Read(pairs[j].M1)
			choices[j] = rnd.Intn(2) == 1
		}
		rs, rr := rand.New(rand.NewSource(rnd.Int63())), rand.New(rand.NewSource(rnd.Int63()))
		var wg sync.WaitGroup
		var got [][]byte
		var rerr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, rerr = ot.RecvBase(ctx, b, "sender", session, sz.otGroup, rr, choices)
		}()
		serr := ot.SendBase(ctx, a, "receiver", session, sz.otGroup, rs, pairs)
		wg.Wait()
		if serr != nil {
			return serr
		}
		if rerr != nil {
			return rerr
		}
		for j, c := range choices {
			want := pairs[j].M0
			if c {
				want = pairs[j].M1
			}
			if string(got[j]) != string(want) {
				return fmt.Errorf("OT %d delivered the wrong message", j)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("ot.base64_ms", median(base))
	return nil
}

// probeNetem replays midday windows of day.hybrid over the emulated "wan"
// topology. Virtual latency and round counts are exact under a seed and are
// what an aggregation-topology verdict cites; they are predicted to move no
// wall-clock metric.
func probeNetem(ctx context.Context, r *report, sz sizes, seed int64) error {
	trace, err := pem.GenerateTrace(planDay(pem.BackendHybrid, sz, seed).trace)
	if err != nil {
		return err
	}
	cfg := marketConfig(pem.BackendHybrid, sz, seed)
	cfg.Network = pem.NetworkWAN
	m, err := pem.NewMarket(cfg, trace.Agents())
	if err != nil {
		return err
	}
	defer m.Close()
	agents := m.Agents()
	var clr pem.Clearing
	var virtual time.Duration
	var rounds, windows int
	for w := sz.netemLo; w < sz.netemHi; w++ {
		inputs, err := trace.WindowInputs(w)
		if err != nil {
			return err
		}
		res, err := m.RunWindow(ctx, w, inputs)
		if err != nil {
			return err
		}
		r.checkWindow(&clr, agents, inputs, res, fmt.Sprintf("netem window %d", w))
		virtual += res.VirtualLatency
		if res.Rounds > rounds {
			rounds = res.Rounds
		}
		windows++
	}
	r.set("netem.virtual_ms_per_window", ratio(ms(virtual), float64(windows)))
	r.set("netem.rounds_max", float64(rounds))
	r.Exact["netem_virtual_ns"] = fmt.Sprint(virtual.Nanoseconds())
	r.Exact["netem_rounds_max"] = fmt.Sprint(rounds)
	return nil
}
