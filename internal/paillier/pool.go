package paillier

import (
	"context"
	"crypto/rand"
	"io"
	"math/big"
	"sync"
	"sync/atomic"
	"time"
)

// NoncePool pre-computes Paillier blinding factors (see BlindingFactor) in
// background workers so that encryptions on the protocol's critical path
// reduce to two modular multiplications. This implements the paper's
// observation (Section VII-B) that "encryption and decryption are
// independently executed in parallel during idle time", which is why
// runtime in Fig. 5(b) is insensitive to the key size.
//
// Refill runs in the background whenever the stock is below target — at
// construction, after every Take, and continuously between windows — so idle
// CPU is converted into ready factors rather than waiting for demand. With
// PoolConfig.Shared set, the individual exponentiations are dispatched
// across the shared Workers pool, letting many parties' pools refill in
// parallel under one process-wide concurrency cap.
//
// The pool degrades gracefully: if drained, Take computes a factor inline.
type NoncePool struct {
	pk     *PublicKey
	shared *Workers // optional refill executor (retained until Close)

	random lockedReader // serializes the source across workers and Take

	mu      sync.Mutex
	factors []*big.Int // LIFO of precomputed factors

	refill chan struct{}
	stop   chan struct{}
	done   chan struct{}
	target int

	closeOnce sync.Once

	// Health counters (see Stats).
	hits        atomic.Uint64
	misses      atomic.Uint64
	retries     atomic.Uint64
	idleRefills atomic.Uint64
}

// PoolStats is a snapshot of a pool's health counters. A growing Misses
// count with Ready stuck at zero means encryptions are paying the full
// exponentiation inline — the degradation the paper's idle-time
// pre-computation is meant to avoid; Retries counts transient randomness
// read failures the workers recovered from.
type PoolStats struct {
	// Ready is the number of precomputed factors currently available.
	Ready int
	// Target is the fill level the pool tries to maintain; Ready/Target is
	// the cache fill ratio.
	Target int
	// Hits counts Take calls served from the precomputed stock.
	Hits uint64
	// Misses counts Take calls that fell back to inline computation.
	Misses uint64
	// IdleRefills counts factors computed by the background refill path
	// (as opposed to inline on a miss).
	IdleRefills uint64
	// Retries counts worker randomness-read failures that were retried.
	Retries uint64
}

// PoolConfig configures a NoncePool.
type PoolConfig struct {
	// Target is the number of factors the pool tries to keep ready.
	Target int
	// Workers is the number of background goroutines. Defaults to 1.
	Workers int
	// Shared, when non-nil, is a Workers pool the background refill
	// dispatches its exponentiations to, so refill parallelism is governed
	// by the process-wide crypto cap instead of this pool's private worker
	// count. The pool retains a reference until Close.
	Shared *Workers
	// Random overrides the randomness source (defaults to crypto/rand).
	Random io.Reader
}

// NewNoncePool starts a pool for pk. Call Close to stop the workers.
func NewNoncePool(pk *PublicKey, cfg PoolConfig) *NoncePool {
	if cfg.Target <= 0 {
		cfg.Target = 16
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	random := cfg.Random
	if random == nil {
		random = rand.Reader
	}
	p := &NoncePool{
		pk:     pk,
		shared: cfg.Shared.Retain(),
		random: lockedReader{r: random},
		refill: make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		target: cfg.Target,
	}
	var wg sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.worker()
		}()
	}
	go func() {
		wg.Wait()
		close(p.done)
	}()
	p.kick()
	return p
}

func (p *NoncePool) kick() {
	select {
	case p.refill <- struct{}{}:
	default:
	}
}

// deficit reports how many factors are missing from the target stock.
func (p *NoncePool) deficit() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.target - len(p.factors)
}

// put appends a background-computed factor, unless the pool stopped while it
// was being computed (late factors are dropped so Close leaves nothing
// behind).
func (p *NoncePool) put(f *big.Int) {
	select {
	case <-p.stop:
		f.SetInt64(0)
		return
	default:
	}
	p.mu.Lock()
	p.factors = append(p.factors, f)
	p.mu.Unlock()
	p.idleRefills.Add(1)
}

func (p *NoncePool) worker() {
	var delay time.Duration // current retry backoff; reset on success
	for {
		select {
		case <-p.stop:
			return
		case <-p.refill:
		}
		for p.deficit() > 0 {
			select {
			case <-p.stop:
				return
			default:
			}
			if p.shared != nil {
				if !p.refillShared() {
					if !p.backoff(&delay) {
						return
					}
					continue
				}
				delay = 0
				continue
			}
			f, err := p.pk.BlindingFactor(&p.random)
			if err != nil {
				// Transient randomness failure: back off and retry rather
				// than silently degrading the pool to inline computation
				// for the rest of the session.
				p.retries.Add(1)
				if !p.backoff(&delay) {
					return
				}
				continue
			}
			delay = 0
			p.put(f)
		}
	}
}

// refillShared dispatches the current deficit across the shared Workers
// pool and waits for the batch; it reports whether any factor was produced
// (false means every draw failed and the caller should back off).
func (p *NoncePool) refillShared() bool {
	n := p.deficit()
	if n <= 0 {
		return true
	}
	var wg sync.WaitGroup
	var produced atomic.Uint64
	for i := 0; i < n; i++ {
		p.shared.Go(&wg, func() {
			f, err := p.pk.BlindingFactor(&p.random)
			if err != nil {
				p.retries.Add(1)
				return
			}
			p.put(f)
			produced.Add(1)
		})
	}
	wg.Wait()
	return produced.Load() > 0
}

// Backoff bounds for worker randomness-read retries.
const (
	backoffMin = time.Millisecond
	backoffMax = time.Second
)

// backoff sleeps for the current retry delay (doubling it up to backoffMax
// for the next failure) and reports false if the pool was stopped while
// waiting.
func (p *NoncePool) backoff(delay *time.Duration) bool {
	if *delay == 0 {
		*delay = backoffMin
	}
	t := time.NewTimer(*delay)
	defer t.Stop()
	if *delay < backoffMax {
		*delay *= 2
	}
	select {
	case <-p.stop:
		return false
	case <-t.C:
		return true
	}
}

// lockedReader serializes access to a randomness source.
type lockedReader struct {
	mu sync.Mutex
	r  io.Reader
}

var _ io.Reader = (*lockedReader)(nil)

func (l *lockedReader) Read(b []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Read(b)
}

// Take returns a precomputed blinding factor, or computes one inline if the
// pool is empty (respecting ctx for cancellation of the inline path).
func (p *NoncePool) Take(ctx context.Context) (*big.Int, error) {
	p.mu.Lock()
	if n := len(p.factors); n > 0 {
		f := p.factors[n-1]
		p.factors = p.factors[:n-1]
		p.mu.Unlock()
		p.hits.Add(1)
		p.kick()
		return f, nil
	}
	p.mu.Unlock()
	p.misses.Add(1)
	p.kick()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return p.pk.BlindingFactor(&p.random)
}

// Stats returns a snapshot of the pool's health counters.
func (p *NoncePool) Stats() PoolStats {
	p.mu.Lock()
	ready := len(p.factors)
	p.mu.Unlock()
	return PoolStats{
		Ready:       ready,
		Target:      p.target,
		Hits:        p.hits.Load(),
		Misses:      p.misses.Load(),
		IdleRefills: p.idleRefills.Load(),
		Retries:     p.retries.Load(),
	}
}

// Len reports the number of ready factors (for tests and metrics).
func (p *NoncePool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.factors)
}

// Close stops the background workers, waits for them to exit, zeroes and
// drops the precomputed factors (they are key-specific secrets-adjacent
// material with no further use), and releases the shared Workers reference.
// Close is idempotent.
func (p *NoncePool) Close() {
	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
	<-p.done
	p.closeOnce.Do(func() {
		p.mu.Lock()
		for _, f := range p.factors {
			f.SetInt64(0)
		}
		p.factors = nil
		p.mu.Unlock()
		p.shared.Release()
		p.shared = nil
	})
}
