package core

import (
	"context"
	"fmt"

	"github.com/pem-go/pem/internal/market"
)

// privateMarketEvaluation is Protocol 2: decide general vs extreme market
// without revealing E_b or E_s.
//
// It is one masked sum run twice with the roles swapped: round A aggregates
// Rb = Σ_buyers(|sn_j| + r_j) + Σ_sellers r_i under the chosen seller Hr1;
// round B aggregates Rs = Σ_sellers(sn_i + r_i) + Σ_buyers r_j under the
// chosen buyer Hr2. Because both rounds carry the same total nonce mass T,
// comparing Rb and Rs is equivalent to comparing E_b and E_s — which Hr1 and
// Hr2 do through the backend's compareTotals (a garbled-circuit comparison
// under the paillier backend, a masked compare under hybrid), then the
// one-bit outcome is broadcast.
//
// The paper routes the final ciphertext of each round to the decryptor
// without that decryptor's own nonce in the chain; here the decryptor adds
// its own contribution locally after decrypting — identical totals, one
// fewer hop.
func (r *windowRun) privateMarketEvaluation(ctx context.Context) (market.Kind, error) {
	ros := r.ros
	rb, err := r.maskedRound(ctx, &r.ringABuf, "pme/rb", market.RoleBuyer, ros.buyers, ros.sellers, ros.hr1)
	if err != nil {
		return 0, err
	}
	rs, err := r.maskedRound(ctx, &r.ringBBuf, "pme/rs", market.RoleSeller, ros.sellers, ros.buyers, ros.hr2)
	if err != nil {
		return 0, err
	}

	// Backend-specific comparison of the masked totals: Hr1 supplies Rb,
	// Hr2 supplies Rs, everyone learns the same one-bit outcome.
	masked := rb
	if r.ID() == ros.hr2 {
		masked = rs
	}
	return r.backend.compareTotals(ctx, r, masked)
}

// maskedRound is one round of Protocol 2. The members of side, then those of
// other without sink, fold their nonce r_i toward sink — plus |sn_i| for a
// member whose role is the round's — and sink opens the total, adds its own
// nonce and returns it; everyone else returns 0. The ring order lives in
// *order, this round's recycled scratch, and the contribution in the run's
// big.Int scratch, so a steady-state round builds them allocation-free.
func (r *windowRun) maskedRound(ctx context.Context, order *[]string, phase string, role market.Role, side, other []string, sink string) (uint64, error) {
	ring := append((*order)[:0], side...)
	for _, id := range other {
		if id != sink {
			ring = append(ring, id)
		}
	}
	*order = ring
	tag := r.tag(phase)

	switch {
	case r.ID() == sink:
		m, err := r.backend.collectSum(ctx, r, ring, tag)
		if err != nil {
			return 0, err
		}
		m.Add(m, r.contribBuf[1].SetUint64(r.nonce))
		if m.Sign() < 0 || !m.IsUint64() {
			return 0, fmt.Errorf("masked total %s out of range: %s", phase, m)
		}
		return m.Uint64(), nil
	case r.role != market.RoleOff:
		contrib := r.contribBuf[0].SetUint64(r.nonce)
		if r.role == role {
			sn := r.contribBuf[1].SetInt64(int64(r.snFixed))
			contrib.Add(contrib, sn.Abs(sn))
		}
		return 0, r.backend.aggregateSum(ctx, r, ring, sink, tag, contrib)
	}
	return 0, nil
}
