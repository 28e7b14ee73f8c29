package core

import (
	"context"
	"fmt"
	"math/big"

	"github.com/pem-go/pem/internal/fixed"
	"github.com/pem-go/pem/internal/gc"
	"github.com/pem-go/pem/internal/market"
	"github.com/pem-go/pem/internal/paillier"
	"github.com/pem-go/pem/internal/transport"
)

// paillierBackend is the paper's construction: every aggregation folds
// Paillier ciphertexts under the sink's key (rings.go), the Rb/Rs decision
// runs the garbled-circuit comparator between Hr1 and Hr2, and Protocol 4
// uses the encrypted reciprocal trick. It delegates to the windowRun
// helpers that implement those mechanics.
type paillierBackend struct{}

var _ cryptoBackend = (*paillierBackend)(nil)

func (*paillierBackend) name() string { return BackendPaillier }

func (*paillierBackend) aggregateSum(ctx context.Context, r *windowRun, order []string, sink, tag string, contribution *big.Int) error {
	return r.aggregate(ctx, order, sink, sink, tag, contribution)
}

func (*paillierBackend) collectSum(ctx context.Context, r *windowRun, order []string, tag string) (*big.Int, error) {
	return r.collect(ctx, order, tag)
}

// compareTotals runs the secure comparison between Hr1 (garbler, input Rb)
// and Hr2 (evaluator, input Rs): general market iff Rb > Rs ⇔ E_b > E_s.
// Hr1 then announces the public one-bit outcome to everyone except Hr2, who
// learned it inside the comparison.
func (*paillierBackend) compareTotals(ctx context.Context, r *windowRun, masked uint64) (market.Kind, error) {
	ros := r.ros
	opts := gc.ProtocolOptions{Random: r.random}
	session := r.tag("pme/cmp")
	kindTag := r.tag("pme/kind")

	switch r.ID() {
	case ros.hr1:
		res, err := gc.SecureCompareGarbler(ctx, r.conn, ros.hr2, session, masked, compareBits, opts)
		if err != nil {
			return 0, fmt.Errorf("secure comparison: %w", err)
		}
		kind := market.ExtremeMarket
		if res == gc.LeftGreater {
			kind = market.GeneralMarket
		}
		msg := []byte{byte(kind)}
		for _, id := range ros.all {
			if id == r.ID() || id == ros.hr2 {
				continue
			}
			if err := r.conn.Send(ctx, id, kindTag, msg); err != nil {
				return 0, err
			}
		}
		return kind, nil

	case ros.hr2:
		res, err := gc.SecureCompareEvaluator(ctx, r.conn, ros.hr1, session, masked, compareBits, opts)
		if err != nil {
			return 0, fmt.Errorf("secure comparison: %w", err)
		}
		if res == gc.LeftGreater {
			return market.GeneralMarket, nil
		}
		return market.ExtremeMarket, nil

	default:
		raw, err := r.conn.Recv(ctx, ros.hr1, kindTag)
		if err != nil {
			return 0, err
		}
		kind, err := parseKindByte(raw)
		transport.PutFrame(raw)
		return kind, err
	}
}

// pricingFold packs the seller's pair into one plaintext — k_i ≥ 0 in the
// low slot, the signed Eq. 13 term above it — so the fused pass is one more
// aggregate: one blinding factor, one ciphertext, one fold per hop.
func (*paillierBackend) pricingFold(ctx context.Context, r *windowRun, tag string, k, term *big.Int) error {
	pair, err := paillier.Pack(k, term)
	if err != nil {
		return fmt.Errorf("pricing: pack k: %w", err)
	}
	return r.aggregate(ctx, r.ros.sellers, r.ros.hb, r.ros.hb, tag, pair)
}

// collectPair decrypts the packed aggregate and splits it into the two sums
// (Σk_i stays below the slot width for any coalition below 2^61 sellers).
func (*paillierBackend) collectPair(ctx context.Context, r *windowRun, tag string) (*big.Int, *big.Int, error) {
	pair, err := r.collect(ctx, r.ros.sellers, tag)
	if err != nil {
		return nil, nil, fmt.Errorf("pricing: %w", err)
	}
	sumK, sumT := paillier.Unpack(pair)
	return sumK, sumT, nil
}

func (*paillierBackend) distributionTotal(ctx context.Context, r *windowRun, demandSide []string, hs, tagRing, tagTotal string, absSn fixed.Value) error {
	return r.distributionAggregate(ctx, demandSide, hs, tagRing, tagTotal, absSn)
}

func (*paillierBackend) maskedReciprocal(ctx context.Context, r *windowRun, hs, tagTotal, tagMasked string, absSn fixed.Value) error {
	return r.sendMaskedReciprocal(ctx, hs, tagTotal, tagMasked, absSn)
}

func (*paillierBackend) ratios(ctx context.Context, r *windowRun, demandSide, supplySide []string, tagMasked, tagRatios string) (map[string]float64, error) {
	return r.collectRatios(ctx, demandSide, supplySide, tagMasked, tagRatios)
}
