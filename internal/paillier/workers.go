package paillier

import (
	"runtime"
	"sync"
)

// Workers is a shared bounded worker pool for CPU-heavy Paillier work
// (packed decryption, key generation, blinding-factor refill). One pool is
// shared by every party of an engine — and, when several engines run over
// shared infrastructure (a coalition grid), by every engine — so the total
// crypto parallelism of a process is capped at the pool size no matter how
// many protocol instances run concurrently.
//
// The pool is a pure concurrency limiter: it owns no goroutines of its own,
// and an idle pool costs nothing. A nil *Workers is valid and means "no
// parallelism": Go runs its function inline on the caller's goroutine,
// which keeps single-threaded deployments free of any scheduling overhead.
//
// Ownership is explicit and reference-counted. NewWorkers hands the caller
// the first reference; every additional owner (e.g. each engine borrowing a
// grid-wide pool) must Retain before use and Release when done. Releasing
// the last reference retires the pool; scheduling work on a retired pool,
// releasing past zero, or retaining a retired pool panics — these are
// lifecycle bugs of the same severity as a sync.WaitGroup misuse, and a
// loud failure beats silently sharing a pool some owner thinks is dead.
type Workers struct {
	sem chan struct{}

	mu      sync.Mutex
	refs    int
	retired bool
}

// NewWorkers creates a pool admitting up to n concurrent operations, owned
// by the caller (reference count 1). n <= 0 selects runtime.NumCPU().
func NewWorkers(n int) *Workers {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	return &Workers{sem: make(chan struct{}, n), refs: 1}
}

// Retain registers an additional owner and returns the pool for chaining.
// A nil pool is returned unchanged (the no-parallelism pool has no
// lifecycle). Retaining a retired pool panics.
func (w *Workers) Retain() *Workers {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.retired {
		panic("paillier: Retain of retired Workers pool")
	}
	w.refs++
	return w
}

// Release drops one owner's reference; the last Release retires the pool.
// Callers must have drained their in-flight operations first (engines
// do: Close waits for in-flight windows before releasing). Releasing a nil
// pool is a no-op; releasing past zero panics.
func (w *Workers) Release() {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.retired {
		panic("paillier: Release of retired Workers pool")
	}
	w.refs--
	if w.refs == 0 {
		w.retired = true
	}
}

// Refs reports the current number of owners (0 once retired). A nil pool
// reports 0.
func (w *Workers) Refs() int {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.refs
}

// checkLive panics if the pool has been retired; called on the scheduling
// paths so use-after-release surfaces at the bug, not as a silent slowdown.
func (w *Workers) checkLive() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.retired {
		panic("paillier: use of retired Workers pool")
	}
}

// Size reports the concurrency bound.
func (w *Workers) Size() int {
	if w == nil {
		return 1
	}
	return cap(w.sem)
}

// Go runs f on its own goroutine once a worker slot is free, releasing the
// slot when f returns. wg is incremented before launch and decremented when
// f completes, so callers can wg.Wait() for a whole batch. A nil pool runs
// f synchronously.
func (w *Workers) Go(wg *sync.WaitGroup, f func()) {
	if w == nil {
		f()
		return
	}
	w.checkLive()
	wg.Add(1)
	w.sem <- struct{}{}
	go func() {
		defer func() {
			<-w.sem
			wg.Done()
		}()
		f()
	}()
}
