package core

import (
	"testing"

	"github.com/pem-go/pem/internal/transport"
)

// Allocation-budget tests for the hybrid backend's masking hot path: mask
// derivation and the share encode/decode cycle run per peer per phase per
// window, so they must stay allocation-free in steady state (AllocsPerRun's
// warm-up call absorbs the one-time hash-buffer growth and frame-pool
// priming).

// TestMaskWordsAllocFree pins the pairwise mask derivation: seed||tag is
// assembled in the run's recycled buffer and digested on the stack.
func TestMaskWordsAllocFree(t *testing.T) {
	p := &Party{maskSeeds: map[string][]byte{"peer": make([]byte, 32)}}
	r := &windowRun{Party: p}
	avg := testing.AllocsPerRun(100, func() {
		if _, _, err := r.maskWords("peer", "c0/w12/pme/sum"); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("maskWords: %.1f allocs/op, want 0", avg)
	}
}

// TestMaskedShareCycleAllocFree pins the hybrid fold's per-hop frame work in
// every share shape — Protocol 4's 128-bit total included: encode a share
// into a pooled frame, decode it back, fold it in, recycle the frame.
func TestMaskedShareCycleAllocFree(t *testing.T) {
	for _, shape := range []shareShape{shapeWord, shapePair, shapeWide} {
		avg := testing.AllocsPerRun(100, func() {
			out := encodeShare(maskedShare{3, 7}, shape.words)
			s, err := decodeShare(out, shape.words, "peer", "t")
			transport.PutFrame(out)
			if err != nil {
				t.Fatal(err)
			}
			if s = s.add(maskedShare{1, 1}, shape); s[0] != 4 {
				t.Fatal("share corrupted")
			}
		})
		if avg != 0 {
			t.Errorf("share cycle %+v: %.1f allocs/op, want 0", shape, avg)
		}
	}
}

// TestPublicCoinAllocFree pins the per-window coin derivation: the hash
// input is assembled in a pooled buffer and digested on the stack, so
// drawing a coin allocates nothing no matter the coalition size.
func TestPublicCoinAllocFree(t *testing.T) {
	sellers := []string{"a1", "a2", "a3"}
	buyers := []string{"b1", "b2"}
	avg := testing.AllocsPerRun(100, func() {
		if idx := publicCoin(7, "hr1", sellers, buyers, len(sellers)); idx < 0 || idx >= len(sellers) {
			t.Fatalf("coin out of range: %d", idx)
		}
	})
	if avg != 0 {
		t.Errorf("publicCoin: %.1f allocs/op, want 0", avg)
	}
}
