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
// derived per (party, window) — so up to Config.MaxInflightWindows windows
// can be in flight at once without cross-talk. Results are delivered in
// job order regardless of completion order, and a seeded engine produces
// bit-identical outcomes at any pipeline depth.

// WindowJob pairs a window number with the fleet's private inputs for it.
type WindowJob struct {
	// Window is the trading-window number the job runs as.
	Window int
	// Inputs are the fleet's private inputs, one per agent in roster order.
	Inputs []market.WindowInput
}

// WindowError wraps a failure with the window it occurred in.
type WindowError struct {
	// Window is the trading window that failed.
	Window int
	// Err is the underlying failure.
	Err error
}

// Error formats the failure with its window number.
func (e *WindowError) Error() string { return fmt.Sprintf("core: window %d: %v", e.Window, e.Err) }

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

// RunWindows executes the jobs with up to Config.MaxInflightWindows
// windows in flight. results[i] corresponds to jobs[i].
func (e *Engine) RunWindows(ctx context.Context, jobs []WindowJob) ([]*WindowResult, error) {
	return e.StreamWindows(ctx, jobs, nil)
}

// StreamWindows is the scheduler: it pipelines the jobs through RunOrdered
// with up to Config.MaxInflightWindows windows in flight and invokes sink
// (when non-nil) for each result in strict job order as soon as that window
// — and every window before it — has completed.
//
// Window numbers must be unique within one call: the number names the
// window's transport tag namespace, so two instances of the same number in
// flight would share queues and cross-talk. For the same reason, callers
// issuing concurrent scheduling calls against one engine must keep their
// window numbers disjoint.
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
		if seen[job.Window] {
			return results, fmt.Errorf("core: duplicate window %d in schedule", job.Window)
		}
		seen[job.Window] = true
	}
	var deliver func(int) error
	if sink != nil {
		deliver = func(i int) error { return sink(results[i]) }
	}
	err := RunOrdered(ctx, len(jobs), e.cfg.MaxInflightWindows, func(ctx context.Context, i int) error {
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
// A failing item — run returned an error — cancels only itself. Once an
// item has failed, ctx is cancelled or deliver has returned an error (which
// also cancels the items in flight), no further item is started: skip (when
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
		failed atomic.Bool
		next   atomic.Int64
		wg     sync.WaitGroup
		errs   = make([]error, n)
		done   = make([]chan struct{}, n)
	)
	for i := range done {
		done[i] = make(chan struct{})
	}

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
				case failed.Load():
					errs[i] = skipped("after earlier failure")
				default:
					if errs[i] = run(runCtx, i); errs[i] != nil {
						failed.Store(true)
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
		return nil, &WindowError{Window: job.Window, Err: err}
	}
	return res, nil
}
