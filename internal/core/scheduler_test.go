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
// one RunWindow at a time and pipelined through StreamWindows over the
// shared bus — and requires bit-identical public outcomes per window, plus
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

	run := func(pipelined bool) []*WindowResult {
		eng, err := NewEngine(testConfig(77), agents)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
		defer cancel()
		jobs := traceJobs(t, tr)
		if pipelined {
			results, err := eng.StreamWindows(ctx, jobs, nil)
			if err != nil {
				t.Fatalf("pipelined: %v", err)
			}
			return results
		}
		results := make([]*WindowResult, len(jobs))
		for i, job := range jobs {
			if results[i], err = eng.RunWindow(ctx, job.Window, job.Inputs); err != nil {
				t.Fatalf("window %d: %v", job.Window, err)
			}
		}
		return results
	}

	seq := run(false)
	pipe := run(true)
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
// and its neighbours — window 3 in flight beside it — must still produce
// correct outcomes.
func TestFaultWindowCancelsOnlyItself(t *testing.T) {
	agents := testAgents(4)
	inputs := []market.WindowInput{
		{Generation: 0.3, Load: 0.1},
		{Generation: 0.0, Load: 0.3},
		{Generation: 0.0, Load: 0.2},
		{Generation: 0.2, Load: 0.1},
	}
	eng, err := NewEngine(testConfig(31), agents)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	p := eng.Parties()[1]
	fc := transport.NewFaultConn(partyConn(p))
	fc.FailWindow(2)
	// Window 2's fault waits until window 3 is on the wire: a fault landing
	// before window 3 launched would rightly skip it, and no in-flight
	// sibling would be left to survive.
	w3 := make(chan struct{})
	p.ReplaceConn(windowHold{Conn: fc, window: 2, until: w3})
	var w3Sends atomic.Int64
	for _, q := range eng.Parties() {
		q.ReplaceConn(windowSendSpy{Conn: partyConn(q), window: 3, sends: &w3Sends, first: w3})
	}

	jobs := make([]WindowJob, 4)
	for w := range jobs {
		jobs[w] = WindowJob{Window: w, Inputs: inputs}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	results, err := eng.StreamWindows(ctx, jobs, nil)
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

// TestFailFastStopsLaunchingWindows drives a deep day through the pipeline
// with an early fault and checks the scheduler does not execute the windows
// after the failure.
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
	// Window 0, in flight beside window 1, holds its first party's sends
	// until window 1's fault has fired: it cannot finish, and free a worker
	// to launch window 2, before window 1 has failed.
	var w1Sends atomic.Int64
	w1 := make(chan struct{})
	p.ReplaceConn(windowHold{Conn: windowSendSpy{Conn: fc, window: 1, sends: &w1Sends, first: w1}, window: 0, until: w1})
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
	results, err := eng.StreamWindows(ctx, jobs, nil)
	var werr *WindowError
	if !errors.As(err, &werr) || werr.Window != 1 {
		t.Fatalf("error does not identify window 1: %v", err)
	}
	if results[0] == nil {
		t.Error("window 0 missing")
	}
	// Nothing past the failed window may have been launched.
	for w := 2; w < 6; w++ {
		if results[w] != nil {
			t.Errorf("window %d ran after fail-fast", w)
		}
	}
	if n := w3Sends.Load(); n != 0 {
		t.Errorf("window 3 put %d messages on the wire after fail-fast", n)
	}
}

// windowSendSpy counts one window's sends through a party's transport and,
// given first, closes it on the first of them across the parties sharing sends.
type windowSendSpy struct {
	transport.Conn
	window int
	sends  *atomic.Int64
	first  chan struct{}
}

func (c windowSendSpy) Send(ctx context.Context, to, tag string, payload []byte) error {
	if _, w, _, ok := transport.ParseScopedWindowTag(tag); ok && w == c.window {
		if c.sends.Add(1) == 1 && c.first != nil {
			close(c.first)
		}
	}
	return c.Conn.Send(ctx, to, tag, payload)
}

// windowHold holds a party's sends in one window until until closes.
type windowHold struct {
	transport.Conn
	window int
	until  <-chan struct{}
}

func (c windowHold) Send(ctx context.Context, to, tag string, payload []byte) error {
	if _, w, _, ok := transport.ParseScopedWindowTag(tag); ok && w == c.window {
		select {
		case <-c.until:
		case <-ctx.Done():
			return ctx.Err()
		}
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
	for _, network := range []string{"", "wan"} {
		t.Run("network="+network, func(t *testing.T) {
			cfg := testConfig(39)
			cfg.Network = network
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
			results, err := eng.StreamWindows(ctx, traceJobs(t, tr), nil)
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
		})
	}
}

// TestScopedFaultCancelsItsWindow: window faults name a window number and
// fire under whatever scope the engine's tags carry — a coalition's engine
// included.
func TestScopedFaultCancelsItsWindow(t *testing.T) {
	inputs := []market.WindowInput{
		{Generation: 0.3, Load: 0.1},
		{Generation: 0.0, Load: 0.3},
		{Generation: 0.0, Load: 0.2},
		{Generation: 0.2, Load: 0.1},
	}
	for _, tc := range []struct {
		name  string
		fault func(*transport.FaultConn)
	}{
		{"FailWindow", func(fc *transport.FaultConn) { fc.FailWindow(0) }},
		{"CorruptNextInWindow", func(fc *transport.FaultConn) { fc.CorruptNextInWindow(0, "role", 3) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := NewEngineWith(testConfig(41), testAgents(4), Resources{Scope: "c00"})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			p := eng.Parties()[1]
			fc := transport.NewFaultConn(partyConn(p))
			tc.fault(fc)
			p.ReplaceConn(fc)

			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			results, err := eng.StreamWindows(ctx, []WindowJob{{Window: 0, Inputs: inputs}}, nil)
			var werr *WindowError
			if !errors.As(err, &werr) || werr.Window != 0 {
				t.Fatalf("error does not identify window 0: %v", err)
			}
			if results[0] != nil {
				t.Error("faulted window produced a result")
			}
		})
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
	for eng.Metrics().LiveWindows() == 0 {
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
	results, err := eng.StreamWindows(context.Background(), nil, nil)
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
	if _, err := eng.StreamWindows(context.Background(), jobs, nil); err == nil {
		t.Fatal("duplicate window numbers accepted")
	}
}

// TestRunWindowsRejectsNegativeNumbers: a negative number names no tag
// namespace (the transport cannot parse "w-1"), so its traffic would go
// unaccounted; it is refused like a duplicate.
func TestRunWindowsRejectsNegativeNumbers(t *testing.T) {
	eng, err := NewEngine(testConfig(41), testAgents(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	inputs := []market.WindowInput{
		{Generation: 0.3, Load: 0.1},
		{Generation: 0.0, Load: 0.3},
	}
	if res, err := eng.RunWindow(context.Background(), -1, inputs); err == nil {
		t.Fatalf("negative window accepted: %+v", res)
	}
	jobs := []WindowJob{{Window: 0, Inputs: inputs}, {Window: -1, Inputs: inputs}}
	if _, err := eng.StreamWindows(context.Background(), jobs, nil); err == nil {
		t.Fatal("negative window in a schedule accepted")
	}
}
