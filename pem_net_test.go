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
	"paillier/ring/cellular": "e69693cd6f85a26d53047b28955a503983757fc9140510023550974d568fd49a",
	"paillier/ring/lan":      "6643cd5986f6abb897d25fdb2611bbe1a7e56885a3068622cae8f4f8ac07265c",
	"paillier/ring/lossy":    "5af6bfba4c0ca05115af3989184fd3237ef9187ac2d98735fdff4fc74d17d5ca",
	"paillier/ring/metro":    "4beb3adfb1741538d812ef1ce80e54f2765c3f63f443b844efbf503e16f2c548",
	"paillier/ring/wan":      "a95f29fd2c8e11943a6d20475443031ad2b18fe7868f762333d17f6ac9eb923a",
	"paillier/tree/cellular": "921f312ce8ff558686759bdab0b32138ff09605500d5d0f84130c2a990bb48fc",
	"paillier/tree/lan":      "c531ecf7575786567d3c255b473a429606d38a7df8b8eec7f1698f96f4321cad",
	"paillier/tree/lossy":    "654a8689f73a8e88784f2a3e0dc8ea3eea25e94e8a99861d9e24bc446950162d",
	"paillier/tree/metro":    "29e6d479aea8158076dc3257a9fd4d068a9a7552a15562a8974e907c9cbfb95c",
	"paillier/tree/wan":      "22703a0a6566b40a84bdbfce89de198762eba0169e5f954fcee8b408845fa4b1",
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
