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
	"hybrid/ring/cellular":   "0afd2eba006232e3661a022eba79428657b1923f0c0e3ca3e8b3b0048b44eb53",
	"hybrid/ring/lan":        "b3e197a2866eea4034b0d52481f29299eb78adff70e6f4d82f9f1c58cf4f9b6b",
	"hybrid/ring/lossy":      "d442f9f68676277ae2e91b34cf5128f7ece06f905df1ebbf7a68ee73bcffa630",
	"hybrid/ring/metro":      "4ba56c77c04c7f97049cc999bb5ddc9f2c74c316d7efdecc1012997c53b185a5",
	"hybrid/ring/wan":        "be6050715cc3ffbac383141933b60c9380edc51c9295af907d0e5d65ec07364d",
	"hybrid/tree/cellular":   "9d7882844343e159d837d4642818403dd73ea24bafd99f0ba8595dc456389d86",
	"hybrid/tree/lan":        "712688e6f275c2d38a1e4d37b5ff618e85f08aedd33dc58b68390393dc86cb7f",
	"hybrid/tree/lossy":      "288404cef8b6a79035c0ead52c4a3698b8a0d1aa4692bc361a44cabc8e566ca5",
	"hybrid/tree/metro":      "aa2bafe56595c572963ff31c8acacdd1367033853044ed2f228f15ac0d961501",
	"hybrid/tree/wan":        "cabfda7dbf3102d1a6f11a6607209019a88be8c2335397cb8b9efe4b39d423ac",
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
