package ledger

import (
	"math"
	"sync"
	"testing"
)

func TestGenesis(t *testing.T) {
	l := New()
	if l.Len() != 1 {
		t.Fatalf("new ledger height = %d, want 1", l.Len())
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("fresh ledger fails verification: %v", err)
	}
}

func TestAppendAndVerify(t *testing.T) {
	l := New()
	for w := 0; w < 5; w++ {
		_, err := l.Append(w, 95.5, []TradeRecord{
			{Seller: "s1", Buyer: "b1", EnergyKWh: 0.5, PaymentCents: 47.75},
			{Seller: "s1", Buyer: "b2", EnergyKWh: 0.25, PaymentCents: 23.88},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != 6 {
		t.Fatalf("height = %d", l.Len())
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
	head := l.Head()
	if head.Window != 4 {
		t.Errorf("head window = %d", head.Window)
	}
}

func TestChainLinks(t *testing.T) {
	l := New()
	b1, err := l.Append(0, 90, nil)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := l.Append(1, 91, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b2.PrevHash != b1.Hash {
		t.Error("prev link broken at append time")
	}
}

func TestVerifyDetectsTamperedTrade(t *testing.T) {
	l := New()
	if _, err := l.Append(0, 95, []TradeRecord{{Seller: "s", Buyer: "b", EnergyKWh: 1, PaymentCents: 95}}); err != nil {
		t.Fatal(err)
	}
	if err := l.TamperForTest(1, func(b *Block) { b.Trades[0].PaymentCents = 1 }); err != nil {
		t.Fatal(err)
	}
	if err := l.Verify(); err == nil {
		t.Error("tampered payment not detected")
	}
}

func TestVerifyDetectsBrokenLink(t *testing.T) {
	l := New()
	l.Append(0, 95, nil)
	l.Append(1, 95, nil)
	if err := l.TamperForTest(1, func(b *Block) {
		b.Trades = append(b.Trades, TradeRecord{Seller: "evil", Buyer: "x", EnergyKWh: 99})
		b.Hash = b.computeHash() // recompute own hash to fake consistency
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.Verify(); err == nil {
		t.Error("re-hashed block with broken successor link not detected")
	}
}

func TestAppendRejectsNonFinite(t *testing.T) {
	l := New()
	if _, err := l.Append(0, 95, []TradeRecord{{Seller: "s", Buyer: "b", EnergyKWh: math.NaN()}}); err == nil {
		t.Error("NaN energy accepted")
	}
	if _, err := l.Append(0, 95, []TradeRecord{{Seller: "s", Buyer: "b", PaymentCents: math.Inf(1)}}); err == nil {
		t.Error("infinite payment accepted")
	}
}

func TestBlockAccess(t *testing.T) {
	l := New()
	l.Append(7, 99, nil)
	b, err := l.Block(1)
	if err != nil {
		t.Fatal(err)
	}
	if b.Window != 7 {
		t.Errorf("window = %d", b.Window)
	}
	if _, err := l.Block(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := l.Block(99); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestConcurrentAppend(t *testing.T) {
	l := New()
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if _, err := l.Append(w, 95, nil); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if l.Len() != 21 {
		t.Fatalf("height = %d, want 21", l.Len())
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestHashString(t *testing.T) {
	l := New()
	s := HashString(l.Head().Hash)
	if len(s) != 16 {
		t.Errorf("HashString length = %d", len(s))
	}
}
