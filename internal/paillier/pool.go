package paillier

import (
	"context"
	"crypto/rand"
	"io"
	"math/big"
	"sync"
	"sync/atomic"
)

// NoncePool is one public key's stock of pre-computed blinding factors (see
// BlindingFactor), so that encryptions on the protocol's critical path
// reduce to two modular multiplications. This implements the paper's
// observation (Section VII-B) that "encryption and decryption are
// independently executed in parallel during idle time". The paper credits
// it with Fig. 5(b)'s key-size insensitivity; here it hides encryption
// only, and runtime still grows with the key (docs/BENCHMARKS.md,
// departure 1).
//
// There is exactly one pool per key: it hangs off the PublicKey next to the
// comb table (see PublicKey.Pool), is shared by everyone who encrypts under
// that key and lives as long as the key does. It starts empty and nothing
// is computed for a key until the first Take. Its fill level is observed,
// not configured: the target is the most factors any one round (a trading
// window) has taken from it, so a key nobody encrypts under stocks nothing
// and a key that serves a 32-party ring stocks 32. Refill is started by
// Take, runs as jobs on the worker pool the taker's Refill lends, and ends
// once the stock is back at target — an idle pool has no goroutine.
//
// The pool degrades gracefully: if drained, Take computes a factor inline.
type NoncePool struct {
	pk *PublicKey

	mu      sync.Mutex
	factors []*big.Int // LIFO of precomputed factors
	round   int        // the round of the latest Take
	inRound int        // factors that round has taken so far
	target  int        // the most any one round has taken
	filling bool       // a fill goroutine is running
	stats   PoolStats  // the counters; Ready and Target are filled in by Stats
}

// PoolStats is a snapshot of pool health counters. A growing Misses count
// with Ready stuck at zero means encryptions are paying the full
// exponentiation inline — the degradation the paper's idle-time
// pre-computation is meant to avoid.
type PoolStats struct {
	// Ready is the number of precomputed factors currently available.
	Ready int
	// Target is the fill level the pool tops itself up to: the largest
	// demand one round has shown. Ready never exceeds it.
	Target int
	// Hits counts Take calls served from the precomputed stock.
	Hits uint64
	// Misses counts Take calls that fell back to inline computation.
	Misses uint64
	// IdleRefills counts factors computed by the background refill path
	// (as opposed to inline on a miss).
	IdleRefills uint64
}

// Add folds another snapshot into s (engines sum their keys' pools).
func (s *PoolStats) Add(o PoolStats) {
	s.Ready += o.Ready
	s.Target += o.Target
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.IdleRefills += o.IdleRefills
}

// Refill is what a taker lends the pools it takes from: the worker pool
// their background fills run on and the randomness every factor is drawn
// from, inline ones included. One Refill serves all of an owner's takes (an
// engine's, a standalone party's); pools hold it only for a running fill,
// and Wait drains those.
type Refill struct {
	workers *Workers
	random  lockedReader
	stopped atomic.Bool
	fills   sync.WaitGroup
}

// NewRefill lends w (nil: fills compute on their own goroutine) and random
// (nil: crypto/rand). The owner must Wait before it goes away, so no fill
// outlives it.
func NewRefill(w *Workers, random io.Reader) *Refill {
	if random == nil {
		random = rand.Reader
	}
	return &Refill{workers: w, random: lockedReader{r: random}}
}

// Wait stops the fills this Refill started and returns once the last has
// exited. Takes through it still work afterwards, inline or from stock;
// they just start no fill. Not to be called concurrently with Take.
func (rf *Refill) Wait() {
	rf.stopped.Store(true)
	rf.fills.Wait()
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
// stock is empty (respecting ctx for cancellation of the inline path), and
// starts a background fill through rf when the stock is below the demand
// seen so far. round names the caller's unit of demand — the trading
// window; takes of interleaved rounds under-count, which only keeps the
// stock smaller. A randomness failure ends a fill quietly and surfaces
// here, from the next inline draw on the same source.
func (p *NoncePool) Take(ctx context.Context, rf *Refill, round int) (*big.Int, error) {
	p.mu.Lock()
	if round != p.round {
		p.round, p.inRound = round, 0
	}
	p.inRound++
	p.target = max(p.target, p.inRound)
	var f *big.Int
	if n := len(p.factors); n > 0 {
		f, p.factors = p.factors[n-1], p.factors[:n-1]
		p.stats.Hits++
	} else {
		p.stats.Misses++
	}
	start := !p.filling && len(p.factors) < p.target && !rf.stopped.Load()
	if start {
		p.filling = true
		rf.fills.Add(1)
	}
	p.mu.Unlock()
	if start {
		go p.fill(rf)
	}
	if f != nil {
		return f, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return p.pk.BlindingFactor(&rf.random)
}

// fill tops the stock up to target, one batch of the current deficit at a
// time across rf's workers, until there is no deficit, rf is stopped or a
// draw fails.
func (p *NoncePool) fill(rf *Refill) {
	defer rf.fills.Done()
	var failed atomic.Bool
	for {
		p.mu.Lock()
		n := p.target - len(p.factors)
		if n <= 0 || failed.Load() || rf.stopped.Load() {
			p.filling = false
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			rf.workers.Go(&wg, func() {
				f, err := p.pk.BlindingFactor(&rf.random)
				if err != nil {
					failed.Store(true)
					return
				}
				p.mu.Lock()
				p.factors = append(p.factors, f)
				p.stats.IdleRefills++
				p.mu.Unlock()
			})
		}
		wg.Wait()
	}
}

// Stats returns a snapshot of the pool's health counters.
func (p *NoncePool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	st.Ready, st.Target = len(p.factors), p.target
	return st
}
