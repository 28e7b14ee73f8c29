package pem_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/pem-go/pem"
)

// TestPublicNetworkEmulation pins the public Config.Network surface: the
// five topology presets, and refusal of an unknown one. That emulation
// prices the network without changing the market — and reports virtual
// latency and rounds only when on — is TestInvariantMatrix's, in every
// preset's cells; its seeded determinism is the Grid × wan traffic pin.
func TestPublicNetworkEmulation(t *testing.T) {
	if presets := pem.NetworkPresets(); len(presets) != 5 {
		t.Fatalf("presets = %v, want 5", presets)
	}
	agents := []pem.Agent{{ID: "a", K: 85, Epsilon: 0.9}, {ID: "b", K: 75, Epsilon: 0.85}}
	if _, err := pem.NewMarket(pem.Config{KeyBits: 256, Network: "dialup"}, agents); err == nil {
		t.Error("unknown network preset accepted")
	}
}

// virtualGolden pins every emulated window's virtual figures: one SHA-256
// per backend/aggregation/preset/depth cell over the per-window virtual
// latency, rounds, messages and bytes on the wire of the sweep that
// TestVirtualLatencyGolden runs.
var virtualGolden = map[string]string{
	"paillier/ring/cellular/1": "e8937ea636c540f0bd1b3e7f1b99a78e43e29be3b8295e137a5c602c47fa9345",
	"paillier/ring/cellular/3": "e8937ea636c540f0bd1b3e7f1b99a78e43e29be3b8295e137a5c602c47fa9345",
	"paillier/ring/lan/1":      "f9bcc4b0a6bb19a98a8063ff895bca0e266b43760f764071fc50be7571e50150",
	"paillier/ring/lan/3":      "f9bcc4b0a6bb19a98a8063ff895bca0e266b43760f764071fc50be7571e50150",
	"paillier/ring/lossy/1":    "6820ef98f94f5291c93ef58e3f2d263f70888f3e6915352f025e2bc968179d10",
	"paillier/ring/lossy/3":    "6820ef98f94f5291c93ef58e3f2d263f70888f3e6915352f025e2bc968179d10",
	"paillier/ring/metro/1":    "e50d0f7b1f796306867499c64e2b33d1771e1cef0afec80beb960f4a101f19e9",
	"paillier/ring/metro/3":    "e50d0f7b1f796306867499c64e2b33d1771e1cef0afec80beb960f4a101f19e9",
	"paillier/ring/wan/1":      "720b31e5ecf10c3830d2e5e9e7649b0941905feefc6c0d20e7dd8968ae972aec",
	"paillier/ring/wan/3":      "720b31e5ecf10c3830d2e5e9e7649b0941905feefc6c0d20e7dd8968ae972aec",
	"paillier/tree/cellular/1": "1a1a30ac38f26c31c7c2ef0329e4dfd414789242889a3637a658274d2e4ca7e9",
	"paillier/tree/cellular/3": "1a1a30ac38f26c31c7c2ef0329e4dfd414789242889a3637a658274d2e4ca7e9",
	"paillier/tree/lan/1":      "1a6f25af9ab3f4e8c279b78072cdeab306cd3b5f8ca7ccd4b9a5ab25a8cd9f50",
	"paillier/tree/lan/3":      "1a6f25af9ab3f4e8c279b78072cdeab306cd3b5f8ca7ccd4b9a5ab25a8cd9f50",
	"paillier/tree/lossy/1":    "46c941ca814147c0fa391acaa5db6ba19a647fe3f91895a8f51fd16626035fce",
	"paillier/tree/lossy/3":    "46c941ca814147c0fa391acaa5db6ba19a647fe3f91895a8f51fd16626035fce",
	"paillier/tree/metro/1":    "b8e3e358f4b138602a5b4268a01b7163fcf5e5c8ee4b78ddf20db02068e51f1e",
	"paillier/tree/metro/3":    "b8e3e358f4b138602a5b4268a01b7163fcf5e5c8ee4b78ddf20db02068e51f1e",
	"paillier/tree/wan/1":      "0e56d924367af0ad655b5e8c57ce59f3d921e408411d827f624c877c122f9656",
	"paillier/tree/wan/3":      "0e56d924367af0ad655b5e8c57ce59f3d921e408411d827f624c877c122f9656",
	"hybrid/ring/cellular/1":   "5372a53cfa48542bc909699e4086c869749693032a81b2394cb22eed901a7f61",
	"hybrid/ring/cellular/3":   "5372a53cfa48542bc909699e4086c869749693032a81b2394cb22eed901a7f61",
	"hybrid/ring/lan/1":        "3df84500b7f750c04bcfec0b6d7ad43bd0112f03f95873cd9b3038a22bea1ef7",
	"hybrid/ring/lan/3":        "3df84500b7f750c04bcfec0b6d7ad43bd0112f03f95873cd9b3038a22bea1ef7",
	"hybrid/ring/lossy/1":      "f63ca2403e9e515cffb3b2c18c6688ba9eca3bc6f58f03e61c294fbb19aa4b7e",
	"hybrid/ring/lossy/3":      "f63ca2403e9e515cffb3b2c18c6688ba9eca3bc6f58f03e61c294fbb19aa4b7e",
	"hybrid/ring/metro/1":      "540295a9428becfc5d77345784e84642b87c4ff7136fbf546ed7271e751f4aeb",
	"hybrid/ring/metro/3":      "540295a9428becfc5d77345784e84642b87c4ff7136fbf546ed7271e751f4aeb",
	"hybrid/ring/wan/1":        "8966e819627538080a2fd9d345d12c4c00fd148c187ca9f92841e4cd7d8077f1",
	"hybrid/ring/wan/3":        "8966e819627538080a2fd9d345d12c4c00fd148c187ca9f92841e4cd7d8077f1",
	"hybrid/tree/cellular/1":   "97ade28b80faf3eb1cf99a8d3c6ebd411e58cee4358dc6d272d4ae2fd19c062b",
	"hybrid/tree/cellular/3":   "97ade28b80faf3eb1cf99a8d3c6ebd411e58cee4358dc6d272d4ae2fd19c062b",
	"hybrid/tree/lan/1":        "06a9bbaeb03ee74ed514f81124752dfff9f067d4053e70d054248ed7d9ab229f",
	"hybrid/tree/lan/3":        "06a9bbaeb03ee74ed514f81124752dfff9f067d4053e70d054248ed7d9ab229f",
	"hybrid/tree/lossy/1":      "01659235742555920f10a32616f7891eff15eded8504fde1304d3cb7384c7997",
	"hybrid/tree/lossy/3":      "01659235742555920f10a32616f7891eff15eded8504fde1304d3cb7384c7997",
	"hybrid/tree/metro/1":      "b63432783b03b88033f60f8e148c96f46d3284c7bb9b8fac52754b6431ddb07a",
	"hybrid/tree/metro/3":      "b63432783b03b88033f60f8e148c96f46d3284c7bb9b8fac52754b6431ddb07a",
	"hybrid/tree/wan/1":        "158a57db93d10efdf59a43c672a0c173db5e1d03b7e779a547275b70b00dd31f",
	"hybrid/tree/wan/3":        "158a57db93d10efdf59a43c672a0c173db5e1d03b7e779a547275b70b00dd31f",
}

// TestVirtualLatencyGolden holds the network emulation's absolute figures,
// not just their order: nine homes of a seed-7 day, its windows 300–309 at
// 256-bit keys, under every preset, backend and aggregation, one window and
// three windows in flight. A change to how a party's virtual clock is kept
// must leave every digest as it is.
func TestVirtualLatencyGolden(t *testing.T) {
	tr, err := pem.GenerateTrace(pem.TraceConfig{Homes: 9, Windows: 720, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const first, windows = 300, 10
	inputs := make([][]pem.WindowInput, windows)
	for w := range inputs {
		inputs[w] = mustInputs(t, tr, first+w)
	}
	for _, backend := range []string{pem.BackendPaillier, pem.BackendHybrid} {
		for _, agg := range []string{pem.AggregationRing, pem.AggregationTree} {
			for _, network := range pem.NetworkPresets() {
				for _, depth := range []int{1, 3} {
					name := fmt.Sprintf("%s/%s/%s/%d", backend, agg, network, depth)
					cfg := pem.Config{KeyBits: 256, Seed: seedPtr(7), CryptoBackend: backend, Aggregation: agg, Network: network, MaxInflightWindows: depth}
					m, err := pem.NewMarket(cfg, tr.Agents())
					if err != nil {
						t.Fatal(err)
					}
					results, err := m.RunWindows(t.Context(), inputs)
					m.Close()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					h := sha256.New()
					for _, res := range results {
						fmt.Fprintln(h, res.Window, int64(res.VirtualLatency), res.Rounds, res.Messages, res.BytesOnWire)
					}
					if got := hex.EncodeToString(h.Sum(nil)); got != virtualGolden[name] {
						t.Errorf("%q: %q,", name, got)
					}
				}
			}
		}
	}
}
