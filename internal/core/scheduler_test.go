package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pem-go/pem/internal/dataset"
	"github.com/pem-go/pem/internal/market"
	"github.com/pem-go/pem/internal/transport"
)

// traceJobs builds one WindowJob per window of a synthetic trace.
func traceJobs(t *testing.T, tr *dataset.Trace) []WindowJob {
	t.Helper()
	jobs := make([]WindowJob, tr.Windows)
	for w := 0; w < tr.Windows; w++ {
		inputs, err := tr.WindowInputs(w)
		if err != nil {
			t.Fatal(err)
		}
		jobs[w] = WindowJob{Window: w, Inputs: inputs}
	}
	return jobs
}

// TestPipelinedWindowsMatchSequential runs the same seeded day twice —
// strictly sequentially and with four windows in flight over the shared
// bus — and requires bit-identical public outcomes per window, plus
// agreement with the plaintext reference. Any tag cross-talk between
// concurrent windows would corrupt an aggregate and trip these checks.
func TestPipelinedWindowsMatchSequential(t *testing.T) {
	// This slice of the evening mixes general-market windows (full
	// protocol stack) with degenerate seller-less ones that finish almost
	// instantly — maximal out-of-order completion stress for the
	// in-order delivery guarantee.
	tr, err := dataset.Generate(dataset.Config{Homes: 6, Windows: 8, Seed: 13, StartHour: 18})
	if err != nil {
		t.Fatal(err)
	}
	agents := tr.Agents()

	run := func(inflight int) []*WindowResult {
		cfg := testConfig(77)
		cfg.MaxInflightWindows = inflight
		eng, err := NewEngine(cfg, agents)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
		defer cancel()
		results, err := eng.RunWindows(ctx, traceJobs(t, tr))
		if err != nil {
			t.Fatalf("inflight=%d: %v", inflight, err)
		}
		return results
	}

	seq := run(1)
	pipe := run(4)
	if len(seq) != len(pipe) {
		t.Fatalf("result counts differ: %d vs %d", len(seq), len(pipe))
	}
	for w := range seq {
		s, p := seq[w], pipe[w]
		if s.Window != w || p.Window != w {
			t.Fatalf("window %d: results out of order (%d, %d)", w, s.Window, p.Window)
		}
		if s.Kind != p.Kind || s.Degenerate != p.Degenerate {
			t.Errorf("window %d: regime differs: %v/%v vs %v/%v", w, s.Kind, s.Degenerate, p.Kind, p.Degenerate)
		}
		if s.Price != p.Price || s.PHat != p.PHat {
			t.Errorf("window %d: price differs: %v/%v vs %v/%v", w, s.Price, s.PHat, p.Price, p.PHat)
		}
		if s.SellerCount != p.SellerCount || s.BuyerCount != p.BuyerCount {
			t.Errorf("window %d: coalition sizes differ", w)
		}
		if len(s.Trades) != len(p.Trades) {
			t.Fatalf("window %d: trade counts differ: %d vs %d", w, len(s.Trades), len(p.Trades))
		}
		for i := range s.Trades {
			if s.Trades[i] != p.Trades[i] {
				t.Errorf("window %d trade %d differs: %+v vs %+v", w, i, s.Trades[i], p.Trades[i])
			}
		}
		// Per-window byte accounting is namespace-exact, so pipelining must
		// not change what a window puts on the wire — except that pooled
		// blinding factors are handed out in scheduling order, and a
		// different factor can shift a ciphertext's marshaled length by a
		// byte. Allow that jitter, nothing more.
		if diff := s.BytesOnWire - p.BytesOnWire; diff > 64 || diff < -64 {
			t.Errorf("window %d: bytes differ: %d vs %d", w, s.BytesOnWire, p.BytesOnWire)
		}
		if !p.Degenerate {
			inputs, err := tr.WindowInputs(w)
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesPlaintext(t, p, agents, inputs)
		}
	}
}

// TestFaultWindowCancelsOnlyItself pipelines four windows and kills one of
// them with a window-scoped transport fault: only that window may fail,
// and its neighbours must still produce correct outcomes.
func TestFaultWindowCancelsOnlyItself(t *testing.T) {
	agents := testAgents(4)
	inputs := []market.WindowInput{
		{Generation: 0.3, Load: 0.1},
		{Generation: 0.0, Load: 0.3},
		{Generation: 0.0, Load: 0.2},
		{Generation: 0.2, Load: 0.1},
	}
	cfg := testConfig(31)
	cfg.MaxInflightWindows = 4
	eng, err := NewEngine(cfg, agents)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	p := eng.Parties()[1]
	fc := transport.NewFaultConn(partyConn(p))
	fc.FailWindow(2)
	p.ReplaceConn(fc)

	jobs := make([]WindowJob, 4)
	for w := range jobs {
		jobs[w] = WindowJob{Window: w, Inputs: inputs}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	results, err := eng.RunWindows(ctx, jobs)
	if err == nil {
		t.Fatal("faulted window succeeded")
	}
	var werr *WindowError
	if !errors.As(err, &werr) || werr.Window != 2 {
		t.Fatalf("error does not identify window 2: %v", err)
	}
	if results[2] != nil {
		t.Error("faulted window produced a result")
	}
	for _, w := range []int{0, 1, 3} {
		if results[w] == nil {
			t.Fatalf("healthy window %d cancelled by window 2's fault", w)
		}
		assertMatchesPlaintext(t, results[w], agents, inputs)
	}
}

// TestFailFastStopsLaunchingWindows drives a deep day through a depth-1
// pipeline with an early fault and checks the scheduler does not execute
// the windows after the failure.
func TestFailFastStopsLaunchingWindows(t *testing.T) {
	agents := testAgents(3)
	inputs := []market.WindowInput{
		{Generation: 0.3, Load: 0.1},
		{Generation: 0.0, Load: 0.3},
		{Generation: 0.0, Load: 0.2},
	}
	eng, err := NewEngine(testConfig(33), agents)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	p := eng.Parties()[0]
	fc := transport.NewFaultConn(partyConn(p))
	fc.FailWindow(1)
	p.ReplaceConn(fc)
	// Every party's sends in window 3 are counted as they happen: the
	// engine folds each window's transport counters once it ends, so the
	// metrics sink cannot tell afterwards whether window 3 ever ran.
	var w3Sends atomic.Int64
	for _, p := range eng.Parties() {
		p.ReplaceConn(windowSendSpy{Conn: partyConn(p), window: 3, sends: &w3Sends})
	}

	jobs := make([]WindowJob, 6)
	for w := range jobs {
		jobs[w] = WindowJob{Window: w, Inputs: inputs}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	results, err := eng.RunWindows(ctx, jobs)
	var werr *WindowError
	if !errors.As(err, &werr) || werr.Window != 1 {
		t.Fatalf("error does not identify window 1: %v", err)
	}
	if results[0] == nil {
		t.Error("window 0 missing")
	}
	// With depth 1, nothing past the failed window may have been launched.
	for w := 2; w < 6; w++ {
		if results[w] != nil {
			t.Errorf("window %d ran after fail-fast", w)
		}
	}
	if n := w3Sends.Load(); n != 0 {
		t.Errorf("window 3 put %d messages on the wire after fail-fast", n)
	}
}

// windowSendSpy counts one window's sends through a party's transport.
type windowSendSpy struct {
	transport.Conn
	window int
	sends  *atomic.Int64
}

func (c windowSendSpy) Send(ctx context.Context, to, tag string, payload []byte) error {
	if _, w, _, ok := transport.ParseScopedWindowTag(tag); ok && w == c.window {
		c.sends.Add(1)
	}
	return c.Conn.Send(ctx, to, tag, payload)
}

// TestMetricsSinkEndsEmpty: a window's transport counters live only while
// the window does. After a seeded day with one window failed mid-flight,
// the sink holds no window's counters, and every completed window's traffic
// is in its WindowResult and the totals.
func TestMetricsSinkEndsEmpty(t *testing.T) {
	tr, err := dataset.Generate(dataset.Config{Homes: 4, Windows: 6, Seed: 21, StartHour: 16.3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(39)
	cfg.MaxInflightWindows = 2
	eng, err := NewEngine(cfg, tr.Agents())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	p := eng.Parties()[1]
	fc := transport.NewFaultConn(partyConn(p))
	fc.FailWindow(3)
	p.ReplaceConn(fc)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	results, err := eng.RunWindows(ctx, traceJobs(t, tr))
	var werr *WindowError
	if !errors.As(err, &werr) || werr.Window != 3 {
		t.Fatalf("error does not identify window 3: %v", err)
	}
	m := eng.Metrics()
	if n := m.LiveWindows(); n != 0 {
		t.Errorf("%d window counters left in the sink after the day", n)
	}
	var sum int64
	for _, res := range results {
		if res != nil {
			sum += res.BytesOnWire
		}
	}
	if sum == 0 || sum > m.TotalBytes() {
		t.Errorf("completed windows carry %d bytes, bus total %d", sum, m.TotalBytes())
	}
}

// TestCloseDrainsInflightWindows closes the engine while a window is mid-
// flight: the window must complete normally (its parties keep their nonce
// pools), Close must block until it has drained, and windows scheduled
// after Close must be refused.
func TestCloseDrainsInflightWindows(t *testing.T) {
	agents := testAgents(4)
	eng, err := NewEngine(testConfig(35), agents)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []market.WindowInput{
		{Generation: 0.3, Load: 0.1},
		{Generation: 0.0, Load: 0.3},
		{Generation: 0.0, Load: 0.2},
		{Generation: 0.2, Load: 0.1},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	type outcome struct {
		res *WindowResult
		err error
	}
	resCh := make(chan outcome, 1)
	go func() {
		res, err := eng.RunWindow(ctx, 0, inputs)
		resCh <- outcome{res, err}
	}()

	// Wait until the window is demonstrably in flight, then close.
	for eng.Metrics().ScopedWindowBytes("", 0) == 0 {
		select {
		case out := <-resCh:
			t.Fatalf("window finished before close raced it: %v", out.err)
		case <-time.After(time.Millisecond):
		}
	}
	eng.Close()

	out := <-resCh
	if out.err != nil {
		t.Fatalf("in-flight window broken by Close: %v", out.err)
	}
	assertMatchesPlaintext(t, out.res, agents, inputs)

	if _, err := eng.RunWindow(ctx, 1, inputs); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("post-Close window error = %v, want ErrEngineClosed", err)
	}
	eng.Close() // idempotent
}

// TestRunWindowsEmpty covers the zero-job edge.
func TestRunWindowsEmpty(t *testing.T) {
	eng, err := NewEngine(testConfig(37), testAgents(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	results, err := eng.RunWindows(context.Background(), nil)
	if err != nil || len(results) != 0 {
		t.Fatalf("empty run: %v, %d results", err, len(results))
	}
}

// TestRunWindowCancelledContext guards against the scheduler returning
// neither a result nor an error when the caller's context is already
// cancelled (jobs skipped by the launcher must still surface ctx.Err()).
func TestRunWindowCancelledContext(t *testing.T) {
	eng, err := NewEngine(testConfig(39), testAgents(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inputs := []market.WindowInput{
		{Generation: 0.3, Load: 0.1},
		{Generation: 0.0, Load: 0.3},
	}
	res, err := eng.RunWindow(ctx, 0, inputs)
	if res != nil {
		t.Fatal("cancelled context produced a result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunWindowsRejectsDuplicateNumbers: a window number names its
// transport tag namespace, so scheduling the same number twice in one call
// must be refused up front rather than allowed to cross-talk.
func TestRunWindowsRejectsDuplicateNumbers(t *testing.T) {
	eng, err := NewEngine(testConfig(41), testAgents(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	inputs := []market.WindowInput{
		{Generation: 0.3, Load: 0.1},
		{Generation: 0.0, Load: 0.3},
	}
	jobs := []WindowJob{{Window: 5, Inputs: inputs}, {Window: 5, Inputs: inputs}}
	if _, err := eng.RunWindows(context.Background(), jobs); err == nil {
		t.Fatal("duplicate window numbers accepted")
	}
}
