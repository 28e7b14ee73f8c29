package transport

import (
	"context"
	"testing"
)

// Allocation-budget tests for the transport hot path: the frame pool and
// the metrics sink's window compaction. testing.AllocsPerRun's warm-up call
// absorbs one-time pool priming, so the budgets are steady-state figures.

// TestFramePoolSteadyStateAllocFree pins the pooled frame cycle: once the
// size class is primed, Get/Put allocates nothing.
func TestFramePoolSteadyStateAllocFree(t *testing.T) {
	for _, n := range []int{64, 1024, 65536} {
		avg := testing.AllocsPerRun(100, func() {
			b := GetFrame(n)
			PutFrame(b)
		})
		if avg != 0 {
			t.Errorf("GetFrame(%d)/PutFrame: %.1f allocs/op, want 0", n, avg)
		}
	}
}

// TestFoldWindowAllocFree pins the metrics compaction the engine runs after
// every window: folding a completed window is
// pure map surgery and must never allocate — it runs once per window for
// the lifetime of a grid simulation.
func TestFoldWindowAllocFree(t *testing.T) {
	bus := NewBus(nil)
	a := bus.MustRegister("a")
	bus.MustRegister("b")
	ctx := context.Background()

	const windows = 128 // warm-up + measured runs each fold a distinct window
	for w := 0; w < windows; w++ {
		if err := a.Send(ctx, "b", ScopedWindowTag("c0", w, "role"), []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	m := bus.Metrics()
	w := 0
	avg := testing.AllocsPerRun(100, func() {
		m.FoldWindow("c0", w)
		w++
	})
	if avg != 0 {
		t.Errorf("FoldWindow: %.1f allocs/op, want 0", avg)
	}
}
