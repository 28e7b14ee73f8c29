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
// The pool is a plain semaphore: it owns no goroutines and no resource, so
// it has no lifecycle and an idle pool costs nothing. A nil *Workers is
// valid and means "no parallelism": Go runs its function inline on the
// caller's goroutine, which keeps single-threaded deployments free of any
// scheduling overhead.
type Workers struct {
	sem chan struct{}
}

// NewWorkers creates a pool admitting up to n concurrent operations.
// n <= 0 selects runtime.NumCPU().
func NewWorkers(n int) *Workers {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	return &Workers{sem: make(chan struct{}, n)}
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
