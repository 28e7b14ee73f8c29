package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"github.com/pem-go/pem/internal/fixed"
	"github.com/pem-go/pem/internal/market"
	"github.com/pem-go/pem/internal/transport"
)

// privatePricing is Protocol 3: in a general market, a hash-chosen buyer Hb
// aggregates two seller sums under its own key — Σ k_i and
// Σ (g_i + 1 + ε_i·b_i − b_i) — computes the Stackelberg price p̂ (Eq. 13),
// clamps it to [pl, ph] (Eq. 14) and broadcasts p*.
//
// The two aggregates are the protocol's designed leakage (Lemma 3): Hb
// learns the sums but no individual seller's parameters.
//
// The two ring passes of the paper (lines 2–5 and line 6) are fused into a
// single pass carrying both running sums — on the Paillier backend as the
// two slots of one plaintext (paillier.Pack), so one ciphertext — halving
// latency without changing what any party sees.
func (r *windowRun) privatePricing(ctx context.Context) (price, pHat float64, err error) {
	ros := r.ros
	tagRing := r.tag("pp/ring")
	tagPrice := r.tag("pp/price")

	if r.ID() == ros.hb {
		return r.pricingAsHb(ctx, tagRing, tagPrice)
	}

	if r.role == market.RoleSeller {
		// Contribution: k_i (fixed) and the Eq. 13 denominator term.
		kFixed, err := fixed.FromFloat(r.agent.K)
		if err != nil {
			return 0, 0, fmt.Errorf("k out of range: %w", err)
		}
		term := market.SellerParams{
			K:       r.agent.K,
			Epsilon: r.agent.Epsilon,
			Gen:     r.input.Generation,
			Battery: r.input.Battery,
		}.PriceTerm()
		termFixed, err := fixed.FromFloat(term)
		if err != nil {
			return 0, 0, fmt.Errorf("price term out of range: %w", err)
		}
		k := r.contribBuf[0].SetInt64(int64(kFixed))
		t := r.contribBuf[1].SetInt64(int64(termFixed))
		if err := r.backend.pricingFold(ctx, r, tagRing, k, t); err != nil {
			return 0, 0, err
		}
	}

	// Everyone except Hb waits for the broadcast price pair (p*, p̂ is not
	// revealed — only the clamped price goes out; p̂ stays with Hb).
	raw, err := r.conn.Recv(ctx, ros.hb, tagPrice)
	if err != nil {
		return 0, 0, err
	}
	if len(raw) != 8 {
		return 0, 0, fmt.Errorf("bad price broadcast")
	}
	pv := fixed.Value(int64(binary.BigEndian.Uint64(raw)))
	transport.PutFrame(raw)
	price = pv.Float()
	if price < r.cfg.Params.PriceFloor-1e-9 || price > r.cfg.Params.PriceCeil+1e-9 {
		return 0, 0, fmt.Errorf("broadcast price %.4f outside [%v, %v]", price, r.cfg.Params.PriceFloor, r.cfg.Params.PriceCeil)
	}
	return price, 0, nil
}

// pricingAsHb is the chosen buyer's side: collect the pair aggregate via
// the backend, compute and broadcast the clamped price.
func (r *windowRun) pricingAsHb(ctx context.Context, tagRing, tagPrice string) (price, pHat float64, err error) {
	ros := r.ros
	sumKBig, sumTBig, err := r.backend.collectPair(ctx, r, tagRing)
	if err != nil {
		return 0, 0, err
	}
	sumK, err := fixed.FromBig(sumKBig)
	if err != nil {
		return 0, 0, fmt.Errorf("pricing: Σk overflow: %w", err)
	}
	sumT, err := fixed.FromBig(sumTBig)
	if err != nil {
		return 0, 0, fmt.Errorf("pricing: Σterm overflow: %w", err)
	}

	pHat, err = market.RawOptimalPrice(sumK.Float(), sumT.Float(), r.cfg.Params.GridRetailPrice)
	if err != nil {
		return 0, 0, fmt.Errorf("pricing: %w", err)
	}
	if math.IsNaN(pHat) {
		return 0, 0, fmt.Errorf("pricing: p̂ is NaN")
	}
	price = market.ClampPrice(pHat, r.cfg.Params.PriceFloor, r.cfg.Params.PriceCeil)

	pv, err := fixed.FromFloat(price)
	if err != nil {
		return 0, 0, err
	}
	var msg [8]byte
	binary.BigEndian.PutUint64(msg[:], uint64(int64(pv)))
	if err := r.broadcast(ctx, ros.all, tagPrice, msg[:]); err != nil {
		return 0, 0, err
	}
	// Adopt the quantized value that went on the wire so every party —
	// including this one — reports bit-identical prices.
	return pv.Float(), pHat, nil
}
