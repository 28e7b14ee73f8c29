package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/pem-go/pem/internal/market"
)

// The scheduler is the third layer of the engine split (see session.go):
// it executes trading windows through the session layer with bounded
// parallelism. Each window is an independent protocol instance — its
// message tags live in their own transport namespace and its randomness is
// derived per (party, window) — so up to windowDepth windows can be in
// flight at once without cross-talk. Results are delivered in job order
// regardless of completion order, and a seeded engine produces
// bit-identical outcomes at any pipeline depth.

// windowDepth is how many windows StreamWindows keeps in flight. Ten
// alternating RunDay pairs (32 homes, 40 windows, 1024-bit keys) ran depth
// 2 against depth 1 at ×0.79 on paillier (10/10) and ×0.88 on hybrid
// (9/10); 2 is the one depth that beat 1 on both backends.
const windowDepth = 2

// WindowJob pairs a window number with the fleet's private inputs for it.
type WindowJob struct {
	// Window is the trading-window number the job runs as.
	Window int
	// Inputs are the fleet's private inputs, one per agent in roster order.
	Inputs []market.WindowInput
}

// WindowError is the one failure type of a trading window. Each field is
// set once, where it is known; a refusal before the first frame (a share
// above fixed.MaxShare, a wrong input count) carries its Window alone.
type WindowError struct {
	Window int    // the failed window, set by the scheduler or RunTradingWindow
	Party  string // the failing party, set by its runWindow
	Phase  string // roles, market evaluation, pricing or distribution
	Peer   string // who sent the refused frame; empty if a receive got none
	Tag    string // the refused frame's scoped tag
	Err    error  // the cause; nil for a frame of the wrong length

	got, want int // a wrong-length frame's bytes and its phase's width
}

// asWindowError returns err as a window's one *WindowError, for a layer to
// set its own fields on: a refused frame already is one, any other cause
// becomes the Err of a new one.
func asWindowError(err error) *WindowError {
	if we, ok := err.(*WindowError); ok {
		return we
	}
	return &WindowError{Err: err}
}

// Error names the window, the party, the phase and the frame, each once
// when set, then the cause.
func (e *WindowError) Error() string {
	b := fmt.Appendf(nil, "core: window %d: ", e.Window)
	if e.Party != "" {
		b = fmt.Appendf(b, "party %s: ", e.Party)
	}
	if e.Phase != "" {
		b = fmt.Appendf(b, "%s: ", e.Phase)
	}
	switch {
	case e.Peer != "" && e.Err == nil:
		return string(fmt.Appendf(b, "frame %s from %s has %d bytes, want %d", e.Tag, e.Peer, e.got, e.want))
	case e.Peer != "":
		b = fmt.Appendf(b, "frame %s from %s: ", e.Tag, e.Peer)
	case e.Tag != "":
		b = fmt.Appendf(b, "frame %s: ", e.Tag)
	}
	return string(fmt.Append(b, e.Err))
}

// Unwrap supports errors.Is/As.
func (e *WindowError) Unwrap() error { return e.Err }

// RunWindow executes Protocol 1 for one window — the depth-1 special case
// of the scheduler.
func (e *Engine) RunWindow(ctx context.Context, window int, inputs []market.WindowInput) (*WindowResult, error) {
	results, err := e.StreamWindows(ctx, []WindowJob{{Window: window, Inputs: inputs}}, nil)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// StreamWindows is the scheduler: it pipelines the jobs through RunOrdered
// with up to windowDepth windows in flight and invokes sink (when non-nil)
// for each result in strict job order as soon as that window — and every
// window before it — has completed.
//
// Window numbers must be non-negative and unique within one call: the
// number names the window's transport tag namespace, which has no form for
// a negative number, and two instances of the same number in flight would
// share queues and cross-talk. For the same reason, callers issuing
// concurrent scheduling calls against one engine must keep their window
// numbers disjoint.
//
// Failure semantics are RunOrdered's: a failing window cancels only itself,
// no window is launched after it, and its error (the earliest by job order
// when several fail) is returned. Results of windows that completed are
// still filled in; sink is never called for jobs at or after the first
// failure. A sink error aborts the whole run, cancelling the in-flight
// windows.
func (e *Engine) StreamWindows(ctx context.Context, jobs []WindowJob, sink func(*WindowResult) error) ([]*WindowResult, error) {
	results := make([]*WindowResult, len(jobs))
	seen := make(map[int]bool, len(jobs))
	for _, job := range jobs {
		if job.Window < 0 {
			return results, fmt.Errorf("core: negative window %d in schedule", job.Window)
		}
		if seen[job.Window] {
			return results, fmt.Errorf("core: duplicate window %d in schedule", job.Window)
		}
		seen[job.Window] = true
	}
	var deliver func(int) error
	if sink != nil {
		deliver = func(i int) error { return sink(results[i]) }
	}
	err := RunOrdered(ctx, len(jobs), windowDepth, func(ctx context.Context, i int) error {
		var err error
		results[i], err = e.runScheduled(ctx, jobs[i])
		return err
	}, nil, deliver)
	return results, err
}

// skipped marks an item RunOrdered never started; the text is the cause.
type skipped string

func (s skipped) Error() string { return string(s) }

// RunOrdered is the one ordered, fail-fast executor: the window scheduler
// and the grid's coalition launcher are both adapters over it. It runs
// items 0..n-1 on width long-lived workers (width ≤ 0 or > n means n), each
// claiming the next index as it finishes its last, and calls deliver (when
// non-nil) on the caller's goroutine for every item that succeeded, in
// index order, as soon as it and every item before it are done.
//
// A failing item — run returned an error — cancels only itself, and no item
// after it is started; an earlier item claimed but not yet started still
// runs. Once ctx is cancelled or deliver has returned an error (which also
// cancels the items in flight), no further item is started: skip (when
// non-nil) is called for each with the cause, "on cancellation", "after
// delivery aborted" or "after earlier failure". Nothing at or after a
// failed index, and no skipped item, is delivered. The return value is the
// earliest failure by index, else the deliver error, else ctx.Err().
func RunOrdered(ctx context.Context, n, width int, run func(ctx context.Context, i int) error, skip func(i int, cause string), deliver func(i int) error) error {
	if width <= 0 || width > n {
		width = n
	}
	runCtx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	var (
		failed atomic.Int64 // lowest failed index, n while none has
		next   atomic.Int64
		wg     sync.WaitGroup
		errs   = make([]error, n)
		done   = make([]chan struct{}, n)
	)
	for i := range done {
		done[i] = make(chan struct{})
	}
	failed.Store(int64(n))

	// Workers: claim the next index, run it or — once there is a reason to
	// stop — skip it. A cancel also fails the items it interrupts, so the
	// contexts are tested before blaming a failure.
	for k := 0; k < width; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				switch {
				case ctx.Err() != nil:
					errs[i] = skipped("on cancellation")
				case runCtx.Err() != nil:
					errs[i] = skipped("after delivery aborted")
				case int64(i) > failed.Load():
					errs[i] = skipped("after earlier failure")
				default:
					if errs[i] = run(runCtx, i); errs[i] != nil {
						for f := failed.Load(); int64(i) < f; f = failed.Load() {
							if failed.CompareAndSwap(f, int64(i)) {
								break
							}
						}
					}
				}
				if cause, ok := errs[i].(skipped); ok && skip != nil {
					skip(i, string(cause))
				}
				close(done[i])
			}
		}()
	}

	// Deliver in index order; the earliest failure stops delivery.
	var firstErr error
	for i := 0; i < n; i++ {
		<-done[i]
		if _, ok := errs[i].(skipped); ok || firstErr != nil {
			continue
		}
		if firstErr = errs[i]; firstErr == nil && deliver != nil {
			if firstErr = deliver(i); firstErr != nil {
				cancelAll() // caller aborted: tear down the items in flight
			}
		}
	}
	wg.Wait()
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return firstErr
}

// runScheduled wraps one window execution with session-lifecycle
// accounting and window-tagged errors.
func (e *Engine) runScheduled(ctx context.Context, job WindowJob) (*WindowResult, error) {
	if err := e.beginWindow(); err != nil {
		return nil, &WindowError{Window: job.Window, Err: err}
	}
	defer e.endWindow()
	res, err := e.runOne(ctx, job.Window, job.Inputs)
	if err != nil {
		we := asWindowError(err)
		we.Window = job.Window
		return nil, we
	}
	return res, nil
}
