package core

import (
	"context"
	"strings"
	"testing"

	"github.com/pem-go/pem/internal/market"
	"github.com/pem-go/pem/internal/transport"
)

func TestStandaloneValidation(t *testing.T) {
	bus := transport.NewBus(nil)
	conn := bus.MustRegister("x")
	cfg := testConfig(1)

	if _, err := NewStandaloneParty(cfg, market.Agent{ID: "x", K: 10, Epsilon: 0.5}, nil); err == nil {
		t.Error("nil conn accepted")
	}
	if _, err := NewStandaloneParty(cfg, market.Agent{ID: "y", K: 10, Epsilon: 0.5}, conn); err == nil {
		t.Error("mismatched transport party accepted")
	}
	p, err := NewStandaloneParty(cfg, market.Agent{ID: "x", K: 10, Epsilon: 0.5}, conn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunTradingWindow(context.Background(), 0, market.WindowInput{}); err == nil {
		t.Error("window without key exchange accepted")
	}
	if _, err := p.RunTradingWindow(context.Background(), -1, market.WindowInput{}); err == nil || !strings.Contains(err.Error(), "negative window") {
		t.Errorf("negative window: err = %v, want refusal", err)
	}
}
