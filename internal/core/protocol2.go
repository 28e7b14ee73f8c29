package core

import (
	"context"
	"encoding/binary"
	"fmt"

	"github.com/pem-go/pem/internal/fixed"
	"github.com/pem-go/pem/internal/gc"
	"github.com/pem-go/pem/internal/market"
)

// marketKind is Protocol 2 as the paper has it: decide general vs extreme
// market without revealing E_b or E_s.
//
// It is one masked sum run twice with the roles swapped: round A aggregates
// Rb = Σ_buyers(|sn_j| + r_j) + Σ_sellers r_i under the chosen seller Hr1;
// round B aggregates Rs = Σ_sellers(sn_i + r_i) + Σ_buyers r_j under the
// chosen buyer Hr2. Because both rounds carry the same total nonce mass T,
// comparing Rb and Rs is equivalent to comparing E_b and E_s, which Hr1
// (garbler) and Hr2 (evaluator) do in the garbled-circuit comparator.
// Rb − Rs = E_b − E_s, bounded by the public share bound, so the circuit
// decides its sign from the totals' low fixed.ComparatorBits bits. Hr1 then
// announces the public one-bit outcome to everyone except Hr2, who learned
// it inside the comparison.
//
// The paper routes the final ciphertext of each round to the decryptor
// without that decryptor's own nonce in the chain; here the decryptor adds
// its own contribution locally after decrypting — identical totals, one
// fewer hop.
func (b paillierBackend) marketKind(ctx context.Context, r *windowRun) (market.Kind, error) {
	ros := r.ros
	nonce, err := r.drawNonce()
	if err != nil {
		return 0, err
	}
	rb, err := b.maskedRound(ctx, r, nonce, &r.ringABuf, "pme/rb", market.RoleBuyer, ros.buyers, ros.sellers, ros.hr1)
	if err != nil {
		return 0, err
	}
	rs, err := b.maskedRound(ctx, r, nonce, &r.ringBBuf, "pme/rs", market.RoleSeller, ros.sellers, ros.buyers, ros.hr2)
	if err != nil {
		return 0, err
	}

	opts := gc.ProtocolOptions{Random: r.random}
	bits := fixed.ComparatorBits(max(len(ros.buyers), len(ros.sellers)))
	session := r.tag("pme/cmp")
	kindTag := r.tag("pme/kind")

	switch r.ID() {
	case ros.hr1:
		res, err := gc.SecureSignGarbler(ctx, r.conn, ros.hr2, session, rb, bits, opts)
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
		res, err := gc.SecureSignEvaluator(ctx, r.conn, ros.hr1, session, rs, bits, opts)
		if err != nil {
			return 0, fmt.Errorf("secure comparison: %w", err)
		}
		if res == gc.LeftGreater {
			return market.GeneralMarket, nil
		}
		return market.ExtremeMarket, nil

	default:
		kind, err := r.recvKind(ctx, ros.hr1, kindTag, byte(market.ExtremeMarket))
		return market.Kind(kind), err
	}
}

// maskedRound is one round of the paper's Protocol 2. The members of side,
// then those of other without sink, fold their nonce r_i toward sink — plus
// |sn_i| for a member whose role is the round's — and sink opens the total,
// adds its own nonce and returns it; everyone else returns 0. The
// contribution lives in the run's big.Int scratch, so a steady-state round
// builds it allocation-free.
func (b paillierBackend) maskedRound(ctx context.Context, r *windowRun, nonce uint64, order *[]string, phase string, role market.Role, side, other []string, sink string) (uint64, error) {
	ring := r.roundOrder(order, side, other, sink)
	tag := r.tag(phase)

	switch {
	case r.ID() == sink:
		m, err := b.collectSum(ctx, r, ring, tag)
		if err != nil {
			return 0, err
		}
		m.Add(m, r.contribBuf[1].SetUint64(nonce))
		if m.Sign() < 0 || !m.IsUint64() {
			return 0, fmt.Errorf("masked total %s out of range: %s", phase, m)
		}
		return m.Uint64(), nil
	case r.role != market.RoleOff:
		contrib := r.contribBuf[0].SetUint64(nonce)
		if r.role == role {
			sn := r.contribBuf[1].SetInt64(int64(r.snFixed))
			contrib.Add(contrib, sn.Abs(sn))
		}
		return 0, b.aggregateSum(ctx, r, ring, sink, tag, contrib)
	}
	return 0, nil
}

// roundOrder is a Protocol 2 fold's order: the members of side, then those
// of other without sink, built in *order, the round's recycled scratch.
func (r *windowRun) roundOrder(order *[]string, side, other []string, sink string) []string {
	ring := append((*order)[:0], side...)
	for _, id := range other {
		if id != sink {
			ring = append(ring, id)
		}
	}
	*order = ring
	return ring
}

// nonceBits is the paillier Protocol 2 masking width: each party's nonce
// r_i is drawn below 2^nonceBits. The garbled circuit sees only the masked
// totals' low fixed.ComparatorBits bits.
const nonceBits = 40

// drawNonce samples the Protocol 2 masking nonce in [0, 2^nonceBits).
func (r *windowRun) drawNonce() (uint64, error) {
	var buf [8]byte
	if _, err := r.random.Read(buf[:]); err != nil {
		return 0, fmt.Errorf("draw nonce: %w", err)
	}
	return binary.BigEndian.Uint64(buf[:]) >> (64 - nonceBits), nil
}
