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
// per backend/aggregation/preset cell over the per-window virtual
// latency, rounds, messages and bytes on the wire of the sweep that
// TestVirtualLatencyGolden runs.
var virtualGolden = map[string]string{
	"paillier/ring/cellular": "63d3ab7550df7e34574d1b9d4e61ee0faee499d20db10dd543445eddfb5187e0",
	"paillier/ring/lan":      "5b5dff87262c1e37435c1028939c03a4c317a36802d024c6ef306c80508c40ae",
	"paillier/ring/lossy":    "06fa3db33d8caf11d51e29b6379a2271fe633558c5c35c47fbd6391f1e39470c",
	"paillier/ring/metro":    "320e27ad9bddbdf0a51be135ccac6bb5d789551ff156ddf876dc78c06f196a2d",
	"paillier/ring/wan":      "216dd17407c4496cee8356c76317b0f9378f2a715cd080eb203909e2eb4aee7b",
	"paillier/tree/cellular": "66fbbae304444482e6ae8d61ca0daf4495510cfb1003ef7fc667cf3f34d5dea6",
	"paillier/tree/lan":      "fb8204f82ef233aaea2443a5165150a40b7f201043598fc68b0e65f9b5f07fbe",
	"paillier/tree/lossy":    "7d78d94b37208f2baf7238c993ba82fb1fba01d0955c596d41bfbe6bbc7d6534",
	"paillier/tree/metro":    "e97a61f8291b1c92b1edc803bc497478acd283f06f628892f5e42690f26a80d7",
	"paillier/tree/wan":      "9add83e76a16c3022babe8d4e7f9117d57317f8d88b091097dbf83927cdc09e9",
	"hybrid/ring/cellular":   "2f59f10c8c2cc68600be5e48e3e96e7010a632c3811be1eacf1c41b6898854dd",
	"hybrid/ring/lan":        "95c51d884a42787ceb723f25a6ceb4ab330ed7f037803968d020eeffe0fd83a0",
	"hybrid/ring/lossy":      "df38ac82e38ed3fe2a8d28e0421df8f3590d18da9dfb1d36985af27cf929ece4",
	"hybrid/ring/metro":      "64d8872524869091994b51505a8b0793fe636a868dd3bcdc3ebbc810ba72466f",
	"hybrid/ring/wan":        "adb76c05cda4570ffe64d07c11fc14541bc078d58e139789c53b2fd8146cd8a9",
	"hybrid/tree/cellular":   "c9e83b4eed0593451d1e766a6f18bc9dbb01ac43261abea64fa74df9c102d0b6",
	"hybrid/tree/lan":        "ca3a3c5619b8458053408e90dd3e6b0989556dd13379c7f82bd466ad3862d5c0",
	"hybrid/tree/lossy":      "94e01d3ac3a50001ef18de184250751d755d5b7318dff500d7b5d162b98fc950",
	"hybrid/tree/metro":      "76b79cacc918e740c9eb4c2aa6ba5e1b2b3ef2450ad91dd108b3bb71400cdb51",
	"hybrid/tree/wan":        "df83f24593ebdf1cbc1432648a5008cdebbdaf770d3b832d92a7a06ffc2324ad",
}

// TestVirtualLatencyGolden holds the network emulation's absolute figures,
// not just their order: nine homes of a seed-7 day, its windows 300–309 at
// 256-bit keys, pipelined by RunWindows, under every preset, backend and
// aggregation. A change to how a party's virtual clock is kept must leave
// every digest as it is.
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
				name := backend + "/" + agg + "/" + network
				cfg := pem.Config{KeyBits: 256, Seed: seedPtr(7), CryptoBackend: backend, Aggregation: agg, Network: network}
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
