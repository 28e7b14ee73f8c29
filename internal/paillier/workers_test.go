package paillier

import (
	"errors"
	"fmt"
	"math/big"
	"testing"
)

func TestDecryptBatch(t *testing.T) {
	key := testKey(t)
	rng := testRand(2)
	const n = 17
	cts := make([]*Ciphertext, n)
	want := make([]int64, n)
	for i := range cts {
		want[i] = int64(i*31 - 200)
		ct, err := key.EncryptInt64(rng, want[i])
		if err != nil {
			t.Fatal(err)
		}
		cts[i] = ct
	}
	for _, workers := range []*Workers{nil, NewWorkers(1), NewWorkers(4), NewWorkers(64)} {
		got, err := key.DecryptBatch(workers, cts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("got %d plaintexts", len(got))
		}
		for i, m := range got {
			if m.Int64() != want[i] {
				t.Fatalf("workers=%d: slot %d = %v, want %d", workers.Size(), i, m, want[i])
			}
		}
	}
	if res, err := key.DecryptBatch(NewWorkers(4), nil); err != nil || len(res) != 0 {
		t.Fatalf("empty batch: %v, %v", res, err)
	}
}

func TestDecryptBatchPropagatesError(t *testing.T) {
	key := testKey(t)
	rng := testRand(3)
	good, err := key.EncryptInt64(rng, 7)
	if err != nil {
		t.Fatal(err)
	}
	bad := &Ciphertext{C: big.NewInt(0)} // not in Z*_{n²}
	if _, err := key.DecryptBatch(NewWorkers(4), []*Ciphertext{good, bad, good}); !errors.Is(err, ErrInvalidCiphertext) {
		t.Fatalf("err = %v, want ErrInvalidCiphertext", err)
	}
}

func TestScalarMulBatch(t *testing.T) {
	key := testKey(t)
	rng := testRand(4)
	const n = 9
	cts := make([]*Ciphertext, n)
	ks := make([]*big.Int, n)
	want := make([]int64, n)
	for i := range cts {
		v := int64(i + 1)
		k := int64(i*3 - 8)
		want[i] = v * k
		ct, err := key.EncryptInt64(rng, v)
		if err != nil {
			t.Fatal(err)
		}
		cts[i] = ct
		ks[i] = big.NewInt(k)
	}
	out, err := key.ScalarMulBatch(NewWorkers(4), cts, ks)
	if err != nil {
		t.Fatal(err)
	}
	for i, ct := range out {
		m, err := key.DecryptInt64(ct)
		if err != nil {
			t.Fatal(err)
		}
		if m != want[i] {
			t.Fatalf("slot %d = %d, want %d", i, m, want[i])
		}
	}
	if _, err := key.ScalarMulBatch(nil, cts, ks[:1]); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// TestWorkersRefcount exercises the shared-ownership lifecycle: several
// owners over one pool, the pool staying live until the last Release, and
// loud panics on double-release and use-after-retire — the bugs that a
// coalition grid sharing one pool across engines would otherwise hit as
// silent leaks or races.
func TestWorkersRefcount(t *testing.T) {
	w := NewWorkers(2)
	if got := w.Refs(); got != 1 {
		t.Fatalf("fresh pool refs = %d, want 1", got)
	}
	w.Retain().Retain()
	if got := w.Refs(); got != 3 {
		t.Fatalf("after two retains refs = %d, want 3", got)
	}
	w.Release()
	w.Release()
	// Still one owner: the pool must still schedule work.
	if err := w.runBatch(4, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	w.Release()
	if got := w.Refs(); got != 0 {
		t.Fatalf("retired pool refs = %d, want 0", got)
	}

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s on retired pool did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Release", w.Release)
	mustPanic("Retain", func() { w.Retain() })
	mustPanic("runBatch", func() { _ = w.runBatch(2, func(int) error { return nil }) })
}

func TestWorkersNilLifecycle(t *testing.T) {
	var w *Workers
	if w.Retain() != nil {
		t.Fatal("nil Retain returned non-nil")
	}
	w.Release() // must not panic
	if got := w.Refs(); got != 0 {
		t.Fatalf("nil pool refs = %d, want 0", got)
	}
}

// BenchmarkDecryptBatch isolates the worker-pool speedup of the Protocol 4
// hot path (Hs decrypting one masked ciphertext per demand-side member).
// On a multi-core host the 8-worker batch decrypts the 32-ciphertext batch
// several times faster than the single-worker one.
func BenchmarkDecryptBatch(b *testing.B) {
	key, err := GenerateKey(testRand(8), 1024)
	if err != nil {
		b.Fatal(err)
	}
	rng := testRand(9)
	const n = 32
	cts := make([]*Ciphertext, n)
	for i := range cts {
		ct, err := key.EncryptInt64(rng, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		cts[i] = ct
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			w := NewWorkers(workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := key.DecryptBatch(w, cts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
