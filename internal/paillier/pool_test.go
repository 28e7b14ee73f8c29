package paillier

import (
	"context"
	"errors"
	"io"
	"math/big"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls until cond holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// settled reports whether the pool is at target with no fill running.
func settled(p *NoncePool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.filling && len(p.factors) == p.target
}

// takeRound takes n factors in one round and fails the test on any error.
func takeRound(t *testing.T, p *NoncePool, rf *Refill, round, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := p.Take(context.Background(), rf, round); err != nil {
			t.Fatalf("round %d take %d: %v", round, i, err)
		}
	}
}

// TestNoncePoolFollowsDemand pins the fill policy: nothing exists for a key
// before its first Take, the stock tops up to the largest single round and
// no further, and every factor computed is either taken or in stock.
func TestNoncePoolFollowsDemand(t *testing.T) {
	key := testKey(t)
	rf := NewRefill(NewWorkers(4), testRand(21))

	if key.table.Load() != nil {
		t.Fatal("a fresh key already has a table holder")
	}
	p := key.Pool()
	if st := p.Stats(); st != (PoolStats{}) || len(key.holder().entries) != 0 {
		t.Fatalf("asking for the pool computed something: %+v, %d table entries", st, len(key.holder().entries))
	}

	takeRound(t, p, rf, 0, 5) // cold: mostly inline, the fill chases
	waitFor(t, "fill to the first round's demand", func() bool { return settled(p) })
	if st := p.Stats(); st.Target != 5 || st.Ready != 5 || st.Hits+st.Misses != 5 {
		t.Fatalf("after a round of 5: %+v", st)
	}

	takeRound(t, p, rf, 1, 3) // within demand: all from stock
	waitFor(t, "refill after a smaller round", func() bool { return settled(p) })
	st := p.Stats()
	if st.Target != 5 || st.Ready != 5 {
		t.Errorf("a smaller round moved the target: %+v", st)
	}
	if hits := st.Hits; hits < 3 {
		t.Errorf("round of 3 against a stock of 5: only %d hits overall: %+v", hits, st)
	}

	takeRound(t, p, rf, 2, 7) // a larger round raises it
	waitFor(t, "refill after a larger round", func() bool { return settled(p) })
	st = p.Stats()
	if st.Target != 7 || st.Ready != 7 {
		t.Errorf("after a round of 7: %+v", st)
	}
	if st.IdleRefills != st.Hits+uint64(st.Ready) {
		t.Errorf("background factors %d ≠ hits %d + stock %d", st.IdleRefills, st.Hits, st.Ready)
	}

	rf.Wait()
}

// TestNoncePoolFirstTakeRace races 64 goroutines on the first Take of a
// fresh key: one table build, and 64 distinct factors that all encrypt.
func TestNoncePoolFirstTakeRace(t *testing.T) {
	key := testKey(t)
	rf := NewRefill(NewWorkers(4), nil)
	defer rf.Wait()

	const n = 64
	factors := make([]*big.Int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := key.Pool().Take(context.Background(), rf, 0)
			if err != nil {
				t.Errorf("take %d: %v", i, err)
				return
			}
			factors[i] = f
		}(i)
	}
	wg.Wait()
	seen := make(map[string]bool, n)
	for i, f := range factors {
		if f == nil {
			continue
		}
		if seen[f.String()] {
			t.Fatalf("factor %d handed out twice", i)
		}
		seen[f.String()] = true
		c, err := key.EncryptWithFactor(big.NewInt(int64(i)), f)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := key.decryptInt64(c); err != nil || got != int64(i) {
			t.Fatalf("factor %d: decrypt got %d, %v", i, got, err)
		}
	}
	if st := key.Pool().Stats(); st.Target != n || st.Ready > st.Target {
		t.Errorf("64 takes in one round: %+v", st)
	}
}

// switchReader fails every read while broken is set.
type switchReader struct {
	broken atomic.Bool
	inner  io.Reader
}

var errEntropy = errors.New("entropy failure")

func (s *switchReader) Read(b []byte) (int, error) {
	if s.broken.Load() {
		return 0, errEntropy
	}
	return s.inner.Read(b)
}

// TestNoncePoolRandomnessFailure breaks the source under a running refill:
// the fill ends without retrying or hanging, the stock stays short, and the
// failure reaches the caller of the next inline Take — then a recovered
// source refills as if nothing had happened.
func TestNoncePoolRandomnessFailure(t *testing.T) {
	key := testKey(t)
	src := &switchReader{inner: testRand(5)}
	rf := NewRefill(nil, src)
	defer rf.Wait()
	p := key.Pool()

	takeRound(t, p, rf, 0, 4)
	waitFor(t, "first fill", func() bool { return settled(p) })

	idle := func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return !p.filling
	}
	src.broken.Store(true)
	takeRound(t, p, rf, 1, 4) // all from stock; the fill they start fails
	waitFor(t, "the failing fill to give up", idle)
	if st := p.Stats(); st.Ready != 0 {
		t.Fatalf("a fill with a broken source produced factors: %+v", st)
	}
	if _, err := p.Take(context.Background(), rf, 2); !errors.Is(err, errEntropy) {
		t.Fatalf("inline Take on a broken source: got %v, want the entropy failure", err)
	}
	// That Take started a fill of its own on the broken source. Repaired
	// while it is still marked filling, the next Take would start none, and
	// the old fill would give up with the stock still empty.
	waitFor(t, "the inline Take's fill to give up", idle)

	src.broken.Store(false)
	takeRound(t, p, rf, 3, 1)
	waitFor(t, "refill after recovery", func() bool { return settled(p) })
}

// TestRefillWaitLeavesNoGoroutine: pools own no goroutine, and the fills a
// Refill started are gone when its Wait returns.
func TestRefillWaitLeavesNoGoroutine(t *testing.T) {
	w := NewWorkers(4)
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		key, err := GenerateKey(testRand(int64(30+i)), 256)
		if err != nil {
			t.Fatal(err)
		}
		rf := NewRefill(w, testRand(int64(23+i)))
		takeRound(t, key.Pool(), rf, 0, 8)
		rf.Wait()
		if st := key.Pool().Stats(); st.Ready > st.Target {
			t.Errorf("stock %d over target %d", st.Ready, st.Target)
		}
	}
	// Wait returns when the fills have signalled their exit; the runtime may
	// take a moment longer to retire the goroutines.
	waitFor(t, "goroutine count to return to its starting value", func() bool { return runtime.NumGoroutine() <= before })
}
