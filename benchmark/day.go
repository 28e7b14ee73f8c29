package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"github.com/pem-go/pem"
	"github.com/pem-go/pem/internal/core"
	"github.com/pem-go/pem/internal/ledger"
	"github.com/pem-go/pem/internal/transport"
)

// day.paillier and day.hybrid: one market over one seeded day trace, driven
// in a closed loop — the next RunWindow is issued when the previous one
// returns.

// dayPlan is the seeded input of a day workload.
type dayPlan struct {
	trace pem.TraceConfig
	// order lists the windows to run. It is a seeded shuffle of the
	// workload's window set, so a time-limited run covers a uniform sample
	// of the set however many windows it reaches.
	order []int
	// warmup is how many windows at the head of order run before anything is
	// measured. A fresh market builds its pre-encryption pools lazily, one
	// per (party, key holder) pair on first use, and for its first seconds
	// windows compete with those pools' refills; a market's keys outlive a
	// day, so the steady state is what a user sees. The warm-up's wall-clock
	// is charged to setup_s, so work moved into it still shows.
	warmup int
}

func planDay(backend string, sz sizes, seed int64) dayPlan {
	lo, hi, warmup := 0, sz.dayWindows, sz.hybridWarmup
	if backend == pem.BackendPaillier {
		lo, hi, warmup = sz.paillierLo, sz.paillierHi, sz.paillierWarmup
	}
	order := make([]int, 0, hi-lo)
	for w := lo; w < hi; w++ {
		order = append(order, w)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return dayPlan{
		trace:  pem.TraceConfig{Homes: sz.homes, Windows: sz.dayWindows, Seed: seed, StartHour: sz.startHour},
		order:  order,
		warmup: warmup,
	}
}

// marketConfig is the market both day workloads run: every field but the
// backend and key size at its default (ring, PreEncrypt, in-flight 1,
// ledger on).
func marketConfig(backend string, sz sizes, seed int64) pem.Config {
	return pem.Config{KeyBits: sz.keyBits, CryptoBackend: backend, Seed: &seed}
}

// messageSpanWindows is how many measured windows of a traced day get one
// span per message; every window gets the transport counters.
const messageSpanWindows = 8

// dayWindow is one completed window kept for the oracle check, which runs
// after the measured interval.
type dayWindow struct {
	window int
	inputs []pem.WindowInput
	res    *pem.WindowResult
}

// runDay is the untraced run: the end-to-end numbers come from here.
func runDay(ctx context.Context, backend string, sz sizes, seed int64, budget time.Duration) (*report, error) {
	plan := planDay(backend, sz, seed)
	r := newReport("day."+backend, seed, false, budget == 0)

	// Set-up, repeated: trace synthesis + key provisioning before the first
	// window can run. The last market built is the one measured.
	var (
		setups []float64
		tr     *pem.Trace
		m      *pem.Market
	)
	for i := 0; i < sz.setupReps; i++ {
		if m != nil {
			m.Close()
		}
		t := time.Now()
		var err error
		if tr, err = pem.GenerateTrace(plan.trace); err != nil {
			return nil, err
		}
		if m, err = pem.NewMarket(marketConfig(backend, sz, seed), tr.Agents()); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer m.Close()
	agents := m.Agents()

	var (
		done    []dayWindow
		latency []float64
		warm    time.Duration
	)
	start := time.Now()
	for i, w := range plan.order {
		if i == plan.warmup {
			warm = time.Since(start)
			start = time.Now()
		}
		if i >= plan.warmup && budget > 0 && time.Since(start) >= budget {
			break
		}
		inputs, err := tr.WindowInputs(w)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		res, err := m.RunWindow(ctx, w, inputs)
		d := time.Since(t)
		if err != nil {
			r.check(false, "window %d: %v", w, err)
			continue
		}
		if i >= plan.warmup {
			latency = append(latency, ms(d))
		}
		done = append(done, dayWindow{w, inputs, res})
	}
	interval := time.Since(start)

	var protocolWindows int
	var clr pem.Clearing
	for _, dw := range done {
		r.checkWindow(&clr, agents, dw.inputs, dw.res, fmt.Sprintf("window %d", dw.window))
		if !dw.res.Degenerate {
			protocolWindows++
		}
	}
	led := m.Ledger()
	r.check(led.Verify() == nil, "ledger does not verify")
	r.check(led.Len() == len(done)+1, "ledger height %d after %d windows", led.Len(), len(done))

	r.Samples = len(latency)
	r.set("window_ms_p50", quantile(latency, 0.50))
	r.set("window_ms_p90", quantile(latency, 0.90))
	r.set("agent_windows_per_s", float64(len(latency)*len(agents))/interval.Seconds())
	r.set("wire_bytes_per_window", ratio(float64(m.Metrics().TotalBytes()), float64(protocolWindows)))
	r.set("setup_s", median(setups)+warm.Seconds())
	r.Extra["window_ms_p99"] = quantile(latency, 0.99)
	r.Extra["window_ms_max"] = quantile(latency, 1)
	r.Extra["warmup_s"] = warm.Seconds()
	r.Exact["windows"] = strconv.Itoa(len(done))
	r.Exact["wire_bytes"] = strconv.FormatInt(m.Metrics().TotalBytes(), 10)
	r.Exact["messages"] = strconv.FormatInt(m.Metrics().TotalMessages(), 10)
	r.Exact["ledger_head"] = ledger.HashString(led.Head().Hash)
	return r, nil
}

// runDayTraced drives core.NewEngine and the ledger glue itself, exactly as
// Market.streamWindows does, so it can put a timing Conn under every party
// and a span around every call into a layer.
func runDayTraced(ctx context.Context, backend string, sz sizes, seed int64, budget time.Duration, tr *tracer) (*report, []float64, error) {
	plan := planDay(backend, sz, seed)
	r := newReport("day."+backend, seed, true, budget == 0)
	root := tr.begin(0, "bench", "run", -1)

	id := tr.begin(root, "dataset", "generate", -1)
	trace, err := pem.GenerateTrace(plan.trace)
	r.set("dataset.generate_ms", ms(tr.end(id)))
	if err != nil {
		return nil, nil, err
	}
	agents := trace.Agents()

	// The engine's own endpoints sit on bus; the timing conns wrap a second
	// set of endpoints on a twin bus sharing the same metrics sink, so the
	// engine's byte accounting (WindowResult.BytesOnWire) still sees every
	// message. Party.ReplaceConn is the seam; nothing in the library changes.
	sink := transport.NewMetrics()
	bus, twin := transport.NewBus(sink), transport.NewBus(sink)
	id = tr.begin(root, "core", "new_engine", -1)
	eng, err := core.NewEngineWith(core.Config{
		KeyBits: sz.keyBits, CryptoBackend: backend, Seed: &seed, PreEncrypt: true,
	}, agents, core.Resources{Bus: bus})
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	defer eng.Close()
	scope := &windowScope{}
	conns := make([]*timedConn, len(eng.Parties()))
	for i, p := range eng.Parties() {
		inner, err := twin.Register(p.ID())
		if err != nil {
			return nil, nil, err
		}
		conns[i] = &timedConn{inner: inner, tr: tr, scope: scope}
		p.ReplaceConn(conns[i])
	}

	var (
		led                                      = ledger.New()
		clr                                      pem.Clearing
		latency, coreMs, busyMs, sendUs, recvMs  []float64
		inputsUs, appendUs, clearUs, msgsPerWin  []float64
		protocolWindows, degenerate, windowsDone int
		warmPool                                 pem.PoolStats
	)
	start := time.Now()
	for i, w := range plan.order {
		if i == plan.warmup {
			start = time.Now()
		}
		if i >= plan.warmup && budget > 0 && time.Since(start) >= budget {
			break
		}
		step := tr.begin(root, "bench", "step", w)

		id = tr.begin(step, "dataset", "window_inputs", w)
		inputs, err := trace.WindowInputs(w)
		inputsUs = append(inputsUs, us(tr.end(id)))
		if err != nil {
			return nil, nil, err
		}

		// "window" covers what Market.RunWindow covers: the engine's window
		// plus the ledger append.
		win := tr.begin(step, "bench", "window", w)
		id = tr.begin(win, "core", "run_window", w)
		scope.span.Store(int64(id))
		scope.window.Store(int64(w))
		scope.spans.Store(i >= plan.warmup && i < plan.warmup+messageSpanWindows)
		winStart := time.Now()
		res, err := eng.RunWindow(ctx, w, inputs)
		coreDur := tr.end(id)
		// busy sums, over parties, the time from the window's start to the
		// party's last transport call, less its time blocked in receives and
		// inside sends: the time it held (or waited for) a CPU.
		var send, recv, busy time.Duration
		var msgs int64
		for _, c := range conns {
			s, b := time.Duration(c.sendNs.Swap(0)), c.takeBlocked()
			send += s
			recv += b
			msgs += c.msgs.Swap(0)
			if active := time.Duration(c.lastNs.Load() - winStart.UnixNano()); active > s+b {
				busy += active - s - b
			}
		}
		if err != nil {
			tr.end(win)
			tr.end(step)
			r.check(false, "window %d: %v", w, err)
			continue
		}
		id = tr.begin(win, "ledger", "append", w)
		_, err = led.Append(res.Window, res.Price, ledger.RecordsFromTrades(res.Trades))
		appendUs = append(appendUs, us(tr.end(id)))
		winDur := tr.end(win)
		if err != nil {
			return nil, nil, fmt.Errorf("ledger append: %w", err)
		}

		id = tr.begin(step, "market", "clear", w)
		clearUs = append(clearUs, us(r.checkWindow(&clr, agents, inputs, res, fmt.Sprintf("window %d", w))))
		tr.end(id)
		tr.end(step)

		windowsDone++
		if res.Degenerate {
			degenerate++
		} else {
			protocolWindows++
		}
		if i == plan.warmup-1 {
			warmPool = eng.PoolStats()
		}
		if i < plan.warmup {
			continue
		}
		latency = append(latency, ms(winDur))
		coreMs = append(coreMs, ms(coreDur))
		if res.Degenerate {
			// Transport and concurrency figures are per protocol window; a
			// degenerate window exchanges only role announcements.
			continue
		}
		busyMs = append(busyMs, ms(busy))
		sendUs = append(sendUs, us(send))
		recvMs = append(recvMs, ms(recv))
		msgsPerWin = append(msgsPerWin, float64(msgs))
	}

	id = tr.begin(root, "ledger", "verify", -1)
	verr := led.Verify()
	r.set("ledger.verify_ms", ms(tr.end(id)))
	r.check(verr == nil, "ledger does not verify: %v", verr)
	tr.end(root)

	pool := eng.PoolStats()
	pool.Hits -= warmPool.Hits
	pool.Misses -= warmPool.Misses
	r.Samples = len(latency)
	r.set("trace.window_ms_p50", quantile(latency, 0.50))
	r.set("core.window_ms", median(coreMs))
	r.set("core.party_busy_ms_per_window", mean(busyMs))
	r.set("core.parallelism", ratio(mean(busyMs), mean(coreMs)))
	r.set("core.degenerate_windows", float64(degenerate))
	r.set("transport.msgs_per_window", mean(msgsPerWin))
	r.set("transport.bytes_per_window", ratio(float64(sink.TotalBytes()), float64(protocolWindows)))
	r.set("transport.send_us_per_window", mean(sendUs))
	r.set("transport.recv_wait_ms_per_window", mean(recvMs))
	r.set("paillier.pool_hit_ratio", ratio(float64(pool.Hits), float64(pool.Hits+pool.Misses)))
	r.set("ledger.append_us", median(appendUs))
	r.set("market.clear_us", median(clearUs))
	r.set("dataset.window_inputs_us", median(inputsUs))
	r.Exact["windows"] = strconv.Itoa(windowsDone)
	r.Exact["wire_bytes"] = strconv.FormatInt(sink.TotalBytes(), 10)
	r.Exact["messages"] = strconv.FormatInt(sink.TotalMessages(), 10)
	r.Exact["ledger_head"] = ledger.HashString(led.Head().Hash)
	return r, latency, nil
}
