package paillier

import (
	"sync"
	"testing"
)

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
	var wg sync.WaitGroup
	ran := 0
	w.Go(&wg, func() { ran++ })
	wg.Wait()
	if ran != 1 {
		t.Fatal("live pool did not run the job")
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
	mustPanic("Go", func() { w.Go(&wg, func() {}) })
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
