package core

import (
	"context"
	"crypto/ecdh"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"math/bits"

	"github.com/pem-go/pem/internal/fixed"
	"github.com/pem-go/pem/internal/market"
	"github.com/pem-go/pem/internal/paillier"
)

// hybridBackend replaces every Paillier sum by information-theoretic
// additive masking and keeps Paillier only where one party must decrypt
// what others computed:
//
//   - Protocol 2's round A and the fused Protocol 3 pair pass fold uint64
//     shares masked by pairwise PRF masks shared with the sink, along
//     exactly the same ring/tree message pattern as the Paillier fold (same
//     senders, same receivers, same message count — only the frame shrinks
//     from a fixed-width ciphertext to a fixed 8- or 16-byte word);
//   - Protocol 2 ends there: round A folds −sn_i, so Hr1 opens E_b − E_s
//     and broadcasts the kind (the designed trade-off documented in
//     DESIGN.md §7);
//   - Protocol 4's opening sum is a masked fold too: the demand side folds
//     |sn_j| under 128-bit masks shared with Hs and the aggregation root
//     keeps the masked total M; Hs sends the root one Enc_hs(−Σμ_j), and the
//     root turns M into Enc_hs(E_b) with one encryption of its own — two
//     blinding factors a window instead of one per member. From the
//     broadcast of Enc_hs(E_b) on, Protocol 4 runs on Paillier as under
//     paillierBackend: the ratio step needs one party (Hs) to decrypt
//     values others computed, which masking cannot express.
//
// Masks are derived per (pair, tag) with SHA-256 over the pairwise seed
// (maskSeed) and the scoped window tag, so every window, phase and
// coalition namespace gets independent masks and the netem byte accounting
// of two identically-configured runs stays identical. Protocols 2–3 add
// mod 2^64 and decode sums as two's-complement int64, which covers every
// protocol total by the same margin as the fixed-point encoding itself;
// Protocol 4's sum adds mod 2^128 (see distributionTotal for the wrap).
type hybridBackend struct{}

// maskSeed is the one derivation of a pair's mask seed, for engines and
// ExchangeKeys: SHA-256("pem/maskseed/v1" ‖ scope ‖ min(a,b) ‖ max(a,b) ‖
// X25519(priv, pub)), strings 4-byte length-prefixed; a low-order pub fails.
func maskSeed(priv *ecdh.PrivateKey, pub *ecdh.PublicKey, scope, a, b string) ([]byte, error) {
	secret, err := priv.ECDH(pub)
	if err != nil {
		return nil, err
	}
	buf := []byte("pem/maskseed/v1")
	for _, f := range [...]string{scope, min(a, b), max(a, b)} {
		buf = append(binary.BigEndian.AppendUint32(buf, uint32(len(f))), f...)
	}
	s := sha256.Sum256(append(buf, secret...))
	return s[:], nil
}

// maskWords derives this party's two mask words for a (peer, tag) pair,
// SHA-256(seed ‖ tag)[:16], hashing in the run's recycled buffer so it
// allocates nothing. Both endpoints of the pair derive identical words;
// anyone else sees uniformly random shares.
func (r *windowRun) maskWords(peer, tag string) (uint64, uint64, error) {
	seed, ok := r.maskSeeds[peer]
	if !ok {
		return 0, 0, fmt.Errorf("hybrid: no mask seed for %s", peer)
	}
	b := append(r.hashBuf[:0], seed...)
	b = append(b, tag...)
	r.hashBuf = b
	s := sha256.Sum256(b)
	return binary.BigEndian.Uint64(s[:8]), binary.BigEndian.Uint64(s[8:16]), nil
}

// int64Word bounds a fixed-point contribution to the int64 range and maps
// it onto the mod-2^64 share domain.
func int64Word(v *big.Int, what string) (uint64, error) {
	if !v.IsInt64() {
		return 0, fmt.Errorf("hybrid: %s out of range: %s", what, v)
	}
	return uint64(v.Int64()), nil
}

// shareShape says how wide a share is on the wire and how it adds.
type shareShape struct {
	words int  // 64-bit words framed, big-endian: 8 or 16 bytes
	carry bool // the two words are one mod-2^128 integer, high word first
}

var (
	shapeWord = shareShape{words: 1}              // a Protocol 2 sum
	shapePair = shareShape{words: 2}              // the fused Protocol 3 pair
	shapeWide = shareShape{words: 2, carry: true} // Protocol 4's total
)

func (s maskedShare) add(o maskedShare, shape shareShape) maskedShare {
	lo, carry := bits.Add64(s[1], o[1], 0)
	if !shape.carry {
		carry = 0
	}
	return maskedShare{s[0] + o[0] + carry, lo}
}

// maskedFold is the member side of a hybrid aggregation: fold this party's
// masked share into the running sum along the configured topology — the
// very hops of the Paillier fold in rings.go (foldHops). The aggregation
// root gets the masked total back (isRoot = true).
func (r *windowRun) maskedFold(ctx context.Context, order []string, tag string, shape shareShape, share maskedShare) (maskedShare, bool, error) {
	pos, err := r.position(order, tag)
	if err != nil {
		return share, false, err
	}
	isRoot, err := r.foldHops(order, pos, func(from string) error {
		in, err := r.recvShare(ctx, from, tag, shape.words)
		share = share.add(in, shape)
		return err
	}, func(to string) error {
		return r.sendShare(ctx, to, tag, shape.words, share)
	})
	return share, isRoot, err
}

// maskedFoldTo is maskedFold with the total delivered to a sink outside the
// fold, who strips the masks (maskedCollect).
func (r *windowRun) maskedFoldTo(ctx context.Context, order []string, sink, tag string, shape shareShape, share maskedShare) error {
	total, isRoot, err := r.maskedFold(ctx, order, tag, shape, share)
	if err != nil || !isRoot {
		return err
	}
	return r.sendShare(ctx, sink, tag, shape.words, total)
}

// maskTotal sums the masks this party shares with every member of order.
func (r *windowRun) maskTotal(order []string, tag string, shape shareShape) (maskedShare, error) {
	var sum maskedShare
	for _, id := range order {
		m0, m1, err := r.maskWords(id, tag)
		if err != nil {
			return sum, err
		}
		sum = sum.add(maskedShare{m0, m1}, shape)
	}
	return sum, nil
}

// maskedCollect is the sink side: receive the folded total from the
// topology's root and strip every member's pairwise masks.
func (r *windowRun) maskedCollect(ctx context.Context, order []string, tag string, shape shareShape) (maskedShare, error) {
	if len(order) == 0 {
		return maskedShare{}, fmt.Errorf("hybrid %s: empty member set", tag)
	}
	total, err := r.recvShare(ctx, r.aggregationRoot(order), tag, shape.words)
	if err != nil {
		return total, err
	}
	masks, err := r.maskTotal(order, tag, shape)
	return maskedShare{total[0] - masks[0], total[1] - masks[1]}, err
}

// marketKind is Protocol 2 as one masked fold toward Hr1: every party with
// a role but Hr1 folds −sn_i under the mask it shares with Hr1, along round
// A's order, and Hr1 opens E_b − E_s, adds its own −sn and broadcasts the
// kind — general iff the total is positive, so a tie is extreme, as Rb > Rs
// has it. Hr1 learns E_b − E_s (DESIGN.md §7). No member's share exceeds
// fixed.MaxShare, so a total beyond max(b, s)·MaxShare in magnitude is a
// tampered fold and is refused; below 2^39 members the bound is under 2^63
// and the mod-2^64 total cannot wrap.
func (hybridBackend) marketKind(ctx context.Context, r *windowRun) (market.Kind, error) {
	ros := r.ros
	tag, kindTag := r.tag("pme/rb"), r.tag("pme/kind")
	order := r.roundOrder(&r.ringABuf, ros.buyers, ros.sellers, ros.hr1)
	neg := uint64(-int64(r.snFixed))
	switch {
	case r.ID() == ros.hr1:
		total, err := r.maskedCollect(ctx, order, tag, shapeWord)
		if err != nil {
			return 0, err
		}
		diff := int64(total[0] + neg)
		bound := int64(max(len(ros.buyers), len(ros.sellers))) * int64(fixed.MaxShare)
		if diff > bound || diff < -bound {
			return 0, fmt.Errorf("masked total pme/rb out of range: %d", diff)
		}
		kind := market.ExtremeMarket
		if diff > 0 {
			kind = market.GeneralMarket
		}
		msg := [1]byte{byte(kind)}
		return kind, r.broadcast(ctx, ros.all, kindTag, msg[:])
	case r.role != market.RoleOff:
		m, _, err := r.maskWords(ros.hr1, tag)
		if err == nil {
			err = r.maskedFoldTo(ctx, order, ros.hr1, tag, shapeWord, maskedShare{neg + m})
		}
		if err != nil {
			return 0, err
		}
	}
	kind, err := r.recvKind(ctx, ros.hr1, kindTag, byte(market.ExtremeMarket))
	return market.Kind(kind), err
}

func (hybridBackend) pricingFold(ctx context.Context, r *windowRun, tag string, k, term *big.Int) error {
	ros := r.ros
	kw, err := int64Word(k, "Σk contribution")
	if err != nil {
		return err
	}
	tw, err := int64Word(term, "price-term contribution")
	if err != nil {
		return err
	}
	m0, m1, err := r.maskWords(ros.hb, tag)
	if err != nil {
		return err
	}
	return r.maskedFoldTo(ctx, ros.sellers, ros.hb, tag, shapePair, maskedShare{kw + m0, tw + m1})
}

func (hybridBackend) collectPair(ctx context.Context, r *windowRun, tag string) (*big.Int, *big.Int, error) {
	total, err := r.maskedCollect(ctx, r.ros.sellers, tag, shapePair)
	if err != nil {
		return nil, nil, err
	}
	return big.NewInt(int64(total[0])), big.NewInt(int64(total[1])), nil
}

// wideInt reads a mod-2^128 share as a non-negative integer, in the run's
// contribution scratch.
func (r *windowRun) wideInt(s maskedShare) *big.Int {
	v := r.contribBuf[0].SetUint64(s[0])
	v.Lsh(v, 64)
	return v.Or(v, r.contribBuf[1].SetUint64(s[1]))
}

// distributionTotal is Protocol 4 step 1 without a ciphertext per member:
// every demand-side member folds |sn_j| + μ_j mod 2^128, μ_j being the mask
// it shares with Hs under the fold tag, and the aggregation root keeps
// M = E_b + Σμ_j mod 2^128 — a uniform word — instead of forwarding it. Hs
// meanwhile sends the root Enc_hs(−μ), μ = Σμ_j mod 2^128 (see ratios), and
// the root broadcasts Enc_hs(−μ)·Enc_hs(M), where the paillier backend
// broadcasts the product of d encryptions.
//
// The root's own encryption is not optional: Hs knows the randomness ρ of
// Enc(−μ), so from a member's (1+n·E_b·k_j)·ρ^(k_j) — whose plaintext it
// decrypts anyway — it could recover the ≤ 40-bit k_j, hence |sn_j|, by
// baby-step/giant-step. The root's factor keeps the base unknown to Hs, as
// the product of the members' factors does in the encrypted fold.
//
// As integers M − μ is E_b, or E_b − 2^128 when the masked sum wrapped —
// probability E_b/2^128, below 2^-60 for any coalition of int64 shares. The
// wrapped total makes every masked product negative, which Hs's packed
// decryption refuses (paillier.ErrSlotOverflow): the window fails, it never
// trades on it.
func (hybridBackend) distributionTotal(ctx context.Context, r *windowRun, demandSide []string, hs, tagRing, tagTotal string, absSn fixed.Value) error {
	m0, m1, err := r.maskWords(hs, tagRing)
	if err != nil {
		return err
	}
	share := maskedShare{m0, m1}.add(maskedShare{0, uint64(absSn)}, shapeWide)
	masked, isRoot, err := r.maskedFold(ctx, demandSide, tagRing, shapeWide, share)
	if err != nil || !isRoot {
		return err
	}

	encM, err := r.encryptUnder(ctx, hs, r.wideInt(masked))
	if err != nil {
		return fmt.Errorf("encrypt masked total: %w", err)
	}
	var total paillier.Ciphertext
	if err := r.recvCipher(ctx, r.dir[hs], &total, hs, r.tag(phaseUnmask)); err != nil {
		return err
	}
	if err := r.dir[hs].AddInPlace(&total, encM); err != nil {
		return err
	}
	return r.broadcastTotal(ctx, demandSide, hs, tagTotal, &total)
}

// ratios is Hs's side. Its half of step 1 comes first: Enc_hs(−μ) needs
// nothing the fold produces, so it is on its way to the root while the fold
// runs and adds no round to the window's critical path.
func (hybridBackend) ratios(ctx context.Context, r *windowRun, demandSide, supplySide []string, tagMasked, tagRatios string) ([]float64, error) {
	mu, err := r.maskTotal(demandSide, r.tag(phaseFold), shapeWide)
	if err != nil {
		return nil, err
	}
	neg := r.wideInt(mu)
	unmask, err := r.encryptUnder(ctx, r.ID(), neg.Neg(neg))
	if err != nil {
		return nil, fmt.Errorf("encrypt unmask: %w", err)
	}
	if err := r.sendCipher(ctx, r.dir[r.ID()], unmask, r.tag(phaseUnmask), r.aggregationRoot(demandSide)); err != nil {
		return nil, fmt.Errorf("send unmask: %w", err)
	}
	return r.collectRatios(ctx, demandSide, supplySide, tagMasked, tagRatios)
}
