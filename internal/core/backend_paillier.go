package core

import (
	"context"
	"fmt"
	"math/big"

	"github.com/pem-go/pem/internal/fixed"
	"github.com/pem-go/pem/internal/paillier"
)

// paillierBackend is the paper's construction: every aggregation folds
// Paillier ciphertexts under the sink's key, the Rb/Rs decision runs the
// garbled-circuit comparator between Hr1 and Hr2 (protocol2.go), and
// Protocol 4 uses the encrypted reciprocal trick. Its sums are its own methods over the fold
// hops it shares with the hybrid backend (rings.go).
type paillierBackend struct{}

// aggregateSum folds the members' encrypted contributions into a single
// ciphertext delivered to sink under sink's key, using the configured
// topology: the paper's sequential ring (O(n) message latency) or a
// log-depth binary reduction tree. Both topologies expose exactly the same
// information — every intermediate value is a partial sum encrypted under
// the sink's key.
func (paillierBackend) aggregateSum(ctx context.Context, r *windowRun, order []string, sink, tag string, contribution *big.Int) error {
	acc, isRoot, err := r.fold(ctx, order, sink, tag, contribution)
	if err != nil || !isRoot {
		return err
	}
	return r.sendCipher(ctx, r.dir[sink], acc, tag, sink)
}

// collectSum is the sink side of aggregateSum: receive the final ciphertext
// from the topology's root member and decrypt it.
func (paillierBackend) collectSum(ctx context.Context, r *windowRun, order []string, tag string) (*big.Int, error) {
	if len(order) == 0 {
		return nil, fmt.Errorf("%s: empty member set", tag)
	}
	var ct paillier.Ciphertext
	if err := r.recvCipher(ctx, &r.key.PublicKey, &ct, r.aggregationRoot(order), tag); err != nil {
		return nil, err
	}
	return r.key.Decrypt(&ct)
}

// pricingFold packs the seller's pair into one plaintext — k_i ≥ 0 in the
// low slot, the signed Eq. 13 term above it — so the fused pass is one more
// aggregate: one blinding factor, one ciphertext, one fold per hop.
func (b paillierBackend) pricingFold(ctx context.Context, r *windowRun, tag string, k, term *big.Int) error {
	pair, err := paillier.Pack(k, term)
	if err != nil {
		return fmt.Errorf("pack k: %w", err)
	}
	return b.aggregateSum(ctx, r, r.ros.sellers, r.ros.hb, tag, pair)
}

// collectPair decrypts the packed aggregate and splits it into the two sums
// (Σk_i stays below the slot width for any coalition below 2^61 sellers).
func (b paillierBackend) collectPair(ctx context.Context, r *windowRun, tag string) (*big.Int, *big.Int, error) {
	pair, err := b.collectSum(ctx, r, r.ros.sellers, tag)
	if err != nil {
		return nil, nil, err
	}
	sumK, sumT := paillier.Unpack(pair)
	return sumK, sumT, nil
}

// distributionTotal folds Enc_hs(|sn|) across the demand side along the
// configured topology; the aggregation root broadcasts the encrypted total
// (Protocol 4 line 5).
func (paillierBackend) distributionTotal(ctx context.Context, r *windowRun, demandSide []string, hs, tagRing, tagTotal string, absSn fixed.Value) error {
	acc, isRoot, err := r.fold(ctx, demandSide, hs, tagRing, r.contribBuf[0].SetInt64(int64(absSn)))
	if err != nil || !isRoot {
		return err
	}
	return r.broadcastTotal(ctx, demandSide, hs, tagTotal, acc)
}

func (paillierBackend) ratios(ctx context.Context, r *windowRun, demandSide, supplySide []string, tagMasked, tagRatios string) ([]float64, error) {
	return r.collectRatios(ctx, demandSide, supplySide, tagMasked, tagRatios)
}
