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
	// BackendHybrid runs every sum of Protocols 2–4 and the Rb/Rs comparison
	// on seeded additive masking over fixed-point integers, keeping Paillier
	// only where a single party must decrypt: Protocol 4's demand total is
	// summed under masks, converted to one ciphertext under Hs's key, and
	// the masked-ratio step runs on that. Outcomes are bit-identical to
	// BackendPaillier; the leakage differences are documented in DESIGN.md
	// §7.
	BackendHybrid = "hybrid"
)

// cryptoBackend is the pluggable window crypto layer: the phase operations
// Protocols 2–4 actually perform, abstracted over how the intermediate
// values are protected in transit. protocol{2,3,4}.go orchestrate *who*
// performs each phase; a backend decides *how* a phase's values are hidden
// (Paillier ciphertexts vs pairwise additive masks) and moves the bytes
// through the window's wire path (frames.go). The seven methods are where
// the backends differ; each states all seven and inherits none, and what
// both share — Protocol 4's step 2 — is a plain windowRun method.
//
// Every implementation must preserve two invariants the rest of the engine
// relies on: phase outcomes are bit-identical to the plaintext oracle for
// honest inputs, and every wire frame has a size independent of the values
// carried (fixed-width ciphertexts or fixed-width masked words), so netem's
// byte and message accounting stays exact across backends.
type cryptoBackend interface {
	// aggregateSum is the member side of a Protocol 2 masked sum: fold this
	// party's contribution into the running total along the configured
	// topology (ring or tree) over order, delivering the result to sink —
	// who is also the party allowed to learn the total.
	aggregateSum(ctx context.Context, r *windowRun, order []string, sink, tag string, contribution *big.Int) error
	// collectSum is the sink side of aggregateSum: recover the plaintext
	// total of the members' contributions.
	collectSum(ctx context.Context, r *windowRun, order []string, tag string) (*big.Int, error)

	// compareTotals decides the market kind from the nonce-masked totals:
	// Hr1 supplies Rb, Hr2 supplies Rs (masked is this party's own total;
	// zero for everyone else), and all parties return the same one-bit
	// outcome: general iff Rb > Rs.
	compareTotals(ctx context.Context, r *windowRun, masked uint64) (market.Kind, error)

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
