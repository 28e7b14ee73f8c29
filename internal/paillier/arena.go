package paillier

import (
	"math/big"
	"sync"
)

// Scratch is an arena of big.Int temporaries for the allocation-lean hot
// path. A Scratch is checked out of a process-wide sync.Pool with
// GetScratch, handed integers one at a time by Int, and returned with Put;
// because the pool caches arenas per P, a steady-state window loop reuses
// the same backing storage (and the same math/big nat capacity) instead of
// allocating fresh temporaries per operation.
//
// Ownership rules:
//
//   - the goroutine that calls GetScratch owns the arena until it calls Put;
//     a Scratch must never be shared between goroutines;
//   - integers returned by Int are owned until the next Put and may hold
//     arbitrary stale values — callers must fully overwrite them (every
//     math/big operation with the integer as receiver does);
//   - no integer obtained from a Scratch may escape past Put: results that
//     outlive the operation are allocated normally;
//   - Put must be called exactly once per GetScratch. In race-detector
//     builds (go test -race) a use after Put or a double Put panics; in
//     regular builds the same bug silently corrupts pooled state, which is
//     why the race gate exists.
type Scratch struct {
	ints []*big.Int
	next int
	dead bool
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch checks an arena out of the process-wide pool. The caller must
// return it with Put.
func GetScratch() *Scratch {
	s := scratchPool.Get().(*Scratch)
	s.next = 0
	s.dead = false
	return s
}

// Put returns the arena to the pool. Every integer handed out by Int is
// invalidated; in race builds, further use of the arena (or a second Put)
// panics.
func (s *Scratch) Put() {
	if raceEnabled {
		if s.dead {
			panic("paillier: Scratch.Put called twice")
		}
		s.dead = true
	}
	s.next = 0
	scratchPool.Put(s)
}

// Int returns the next scratch integer. Its value is unspecified — the
// caller must overwrite it before reading. The integer stays valid until
// the arena's Put.
func (s *Scratch) Int() *big.Int {
	if raceEnabled && s.dead {
		panic("paillier: Scratch used after Put")
	}
	if s.next == len(s.ints) {
		s.ints = append(s.ints, new(big.Int))
	}
	x := s.ints[s.next]
	s.next++
	return x
}

// words returns n words of storage with unspecified contents, kept by the
// next integer of s and valid, like it, until Put.
func (s *Scratch) words(n int) []big.Word {
	x := s.Int()
	w := x.Bits()
	if cap(w) < n {
		w = make([]big.Word, n)
		x.SetBits(w)
	}
	return w[:n]
}
