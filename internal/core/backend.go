package core

import (
	"context"
	"math/big"

	"github.com/pem-go/pem/internal/fixed"
	"github.com/pem-go/pem/internal/market"
)

// Crypto backends (Config.CryptoBackend).
const (
	// BackendPaillier runs every phase of Protocols 2–4 on Paillier
	// homomorphic encryption, the paper's construction.
	BackendPaillier = "paillier"
	// BackendHybrid runs every sum of Protocols 2–4 on seeded additive
	// masking over fixed-point integers (Protocol 2 is one fold that Hr1
	// opens as E_b − E_s), keeping Paillier only where a single party must
	// decrypt: Protocol 4's demand total is summed under masks, converted to
	// one ciphertext under Hs's key, and the masked-ratio step runs on that.
	// Outcomes are bit-identical to BackendPaillier; the leakage differences
	// are documented in DESIGN.md §7.
	BackendHybrid = "hybrid"
)

// cryptoBackend is the pluggable window crypto layer: the phase operations
// Protocols 2–4 actually perform, abstracted over how the intermediate
// values are protected in transit. protocol{2,3,4}.go orchestrate *who*
// performs each phase; a backend decides *how* a phase's values are hidden
// (Paillier ciphertexts vs pairwise additive masks) and moves the bytes
// through the window's wire path (frames.go). The five methods are where
// the backends differ; each states all five and inherits none, and what
// both share — Protocol 4's step 2 — is a plain windowRun method.
//
// Every implementation must preserve two invariants the rest of the engine
// relies on: phase outcomes are bit-identical to the plaintext oracle for
// honest inputs, and every wire frame has a size independent of the values
// carried (fixed-width ciphertexts or fixed-width masked words), so netem's
// byte and message accounting stays exact across backends.
type cryptoBackend interface {
	// marketKind is Protocol 2: every party returns the same market kind,
	// general iff E_b > E_s, without anyone learning E_b or E_s.
	marketKind(ctx context.Context, r *windowRun) (market.Kind, error)

	// pricingFold is one seller's step of the fused Protocol 3 pass: fold
	// the pair (k_i, g_i+1+ε_i·b_i−b_i) into the running pair along the
	// configured topology over the sellers, toward Hb.
	pricingFold(ctx context.Context, r *windowRun, tag string, k, term *big.Int) error
	// collectPair is Hb's side of pricingFold: recover (Σk_i, Σterm_i).
	collectPair(ctx context.Context, r *windowRun, tag string) (*big.Int, *big.Int, error)

	// distributionTotal is the demand side of Protocol 4 step 1: sum |sn|
	// and broadcast the total, encrypted under Hs's key, within the demand
	// side.
	distributionTotal(ctx context.Context, r *windowRun, demandSide []string, hs, tagRing, tagTotal string, absSn fixed.Value) error
	// ratios is Hs's side of Protocol 4: whatever step 1 needs of it, then
	// step 3 — decrypt the masked values, recover the allocation ratios and
	// broadcast them to the supply side.
	ratios(ctx context.Context, r *windowRun, demandSide, supplySide []string, tagMasked, tagRatios string) ([]float64, error)
}

// backendFor maps a validated Config.CryptoBackend to its implementation.
// Backends are stateless empty values: all per-party and per-window state
// lives on Party and windowRun.
func backendFor(name string) cryptoBackend {
	if name == BackendHybrid {
		return hybridBackend{}
	}
	return paillierBackend{}
}
