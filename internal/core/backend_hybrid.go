package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"math/bits"

	"github.com/pem-go/pem/internal/fixed"
	"github.com/pem-go/pem/internal/market"
	"github.com/pem-go/pem/internal/paillier"
	"github.com/pem-go/pem/internal/transport"
)

// hybridBackend replaces every Paillier sum by information-theoretic
// additive masking and keeps Paillier only where one party must decrypt
// what others computed:
//
//   - the Protocol 2 sum rounds and the fused Protocol 3 pair pass fold
//     uint64 shares masked by pairwise PRF masks shared with the sink, along
//     exactly the same ring/tree message pattern as the Paillier fold (same
//     senders, same receivers, same message count — only the frame shrinks
//     from a fixed-width ciphertext to a fixed 8- or 16-byte word);
//   - the Rb/Rs decision becomes a masked compare: Hr2 hands its
//     nonce-masked total to Hr1, who compares and broadcasts the one-bit
//     outcome (leaking Rb−Rs = E_b−E_s to Hr1 — the designed trade-off
//     documented in DESIGN.md §12);
//   - Protocol 4's opening sum is a masked fold too: the demand side folds
//     |sn_j| under 128-bit masks shared with Hs and the aggregation root
//     keeps the masked total M; Hs sends the root one Enc_hs(−Σμ_j), and the
//     root turns M into Enc_hs(E_b) with one encryption of its own — two
//     blinding factors a window instead of one per member. From the
//     broadcast of Enc_hs(E_b) on, Protocol 4 is the embedded
//     paillierBackend's: the ratio step needs one party (Hs) to decrypt
//     values others computed, which masking cannot express.
//
// Masks are derived per (pair, tag) with SHA-256 over the engine-provisioned
// pairwise seed and the scoped window tag, so every window, phase and
// coalition namespace gets independent masks and the netem byte accounting
// of two identically-configured runs stays identical. Protocols 2–3 add
// mod 2^64 and decode sums as two's-complement int64, which covers every
// protocol total by the same margin as the fixed-point encoding itself;
// Protocol 4's sum adds mod 2^128 (see distributionTotal for the wrap).
type hybridBackend struct {
	paillierBackend
}

var _ cryptoBackend = (*hybridBackend)(nil)

func (*hybridBackend) name() string { return BackendHybrid }

// maskWords derives this party's two mask words for a (peer, tag) pair from
// the engine-provisioned pairwise seed. Both endpoints of the pair derive
// identical words; anyone else sees uniformly random shares. The hash input
// seed||tag is assembled in the run's recycled buffer and digested with
// sha256.Sum256 — byte-identical to the streaming-hash formulation, without
// its per-call state allocation.
func (r *windowRun) maskWords(peer, tag string) (uint64, uint64, error) {
	seed, ok := r.maskSeeds[peer]
	if !ok {
		return 0, 0, fmt.Errorf("hybrid: no mask seed for %s (backend requires engine provisioning)", peer)
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

// maskedShare is a running partial sum in one of three shapes.
type maskedShare [2]uint64

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

// frameError reports a received frame a hybrid phase cannot use: who sent
// it, under which tag, and either the two lengths or the decoding failure.
type frameError struct {
	from, tag string
	got, want int
	err       error
}

func (e *frameError) Error() string {
	if e.err != nil {
		return fmt.Sprintf("hybrid %s: frame from %s: %v", e.tag, e.from, e.err)
	}
	return fmt.Sprintf("hybrid %s: frame from %s has %d bytes, want %d", e.tag, e.from, e.got, e.want)
}

func (e *frameError) Unwrap() error { return e.err }

// encodeShare writes the first `words` words as a fixed-width frame: the
// frame size depends only on the phase, never on the values, preserving
// exact netem byte accounting. The frame is pooled — the caller owns it and
// recycles it with transport.PutFrame once sent.
func encodeShare(s maskedShare, words int) []byte {
	out := transport.GetFrame(8 * words)
	for i := 0; i < words; i++ {
		binary.BigEndian.PutUint64(out[8*i:], s[i])
	}
	return out
}

func decodeShare(raw []byte, words int, from, tag string) (maskedShare, error) {
	var s maskedShare
	if len(raw) != 8*words {
		return s, &frameError{from: from, tag: tag, got: len(raw), want: 8 * words}
	}
	for i := 0; i < words; i++ {
		s[i] = binary.BigEndian.Uint64(raw[8*i:])
	}
	return s, nil
}

func (r *windowRun) sendShare(ctx context.Context, to, tag string, words int, s maskedShare) error {
	out := encodeShare(s, words)
	err := r.conn.Send(ctx, to, tag, out)
	transport.PutFrame(out)
	if err != nil {
		return fmt.Errorf("hybrid %s: send to %s: %w", tag, to, err)
	}
	return nil
}

func (r *windowRun) recvShare(ctx context.Context, from, tag string, words int) (maskedShare, error) {
	raw, err := r.conn.Recv(ctx, from, tag)
	if err != nil {
		return maskedShare{}, fmt.Errorf("hybrid %s: recv from %s: %w", tag, from, err)
	}
	s, err := decodeShare(raw, words, from, tag)
	transport.PutFrame(raw)
	return s, err
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

func (*hybridBackend) aggregateSum(ctx context.Context, r *windowRun, order []string, sink, tag string, contribution *big.Int) error {
	w, err := int64Word(contribution, "contribution")
	if err != nil {
		return err
	}
	m0, m1, err := r.maskWords(sink, tag)
	if err != nil {
		return err
	}
	return r.maskedFoldTo(ctx, order, sink, tag, shapeWord, maskedShare{w + m0, m1})
}

func (*hybridBackend) collectSum(ctx context.Context, r *windowRun, order []string, tag string) (*big.Int, error) {
	total, err := r.maskedCollect(ctx, order, tag, shapeWord)
	if err != nil {
		return nil, err
	}
	return big.NewInt(int64(total[0])), nil
}

// compareTotals is the masked compare: Hr2 hands its nonce-masked total Rs
// to Hr1, who decides general iff Rb > Rs and broadcasts the one-bit
// outcome to everyone (Hr2 included — unlike the garbled-circuit path it
// does not learn the bit as a protocol by-product).
func (*hybridBackend) compareTotals(ctx context.Context, r *windowRun, masked uint64) (market.Kind, error) {
	ros := r.ros
	cmpTag := r.tag("pme/cmp")
	kindTag := r.tag("pme/kind")

	switch r.ID() {
	case ros.hr1:
		rs, err := r.recvShare(ctx, ros.hr2, cmpTag, shapeWord.words)
		if err != nil {
			return 0, fmt.Errorf("masked comparison: %w", err)
		}
		kind := market.ExtremeMarket
		if masked > rs[0] {
			kind = market.GeneralMarket
		}
		msg := [1]byte{byte(kind)}
		if err := r.broadcast(ctx, ros.all, kindTag, msg[:]); err != nil {
			return 0, err
		}
		return kind, nil

	default:
		if r.ID() == ros.hr2 {
			if err := r.sendShare(ctx, ros.hr1, cmpTag, shapeWord.words, maskedShare{masked}); err != nil {
				return 0, fmt.Errorf("masked comparison: %w", err)
			}
		}
		raw, err := r.conn.Recv(ctx, ros.hr1, kindTag)
		if err != nil {
			return 0, err
		}
		kind, err := parseKindByte(raw)
		transport.PutFrame(raw)
		return kind, err
	}
}

func (*hybridBackend) pricingFold(ctx context.Context, r *windowRun, tag string, k, term *big.Int) error {
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

func (*hybridBackend) collectPair(ctx context.Context, r *windowRun, tag string) (*big.Int, *big.Int, error) {
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
func (*hybridBackend) distributionTotal(ctx context.Context, r *windowRun, demandSide []string, hs, tagRing, tagTotal string, absSn fixed.Value) error {
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
		return fmt.Errorf("distribution: encrypt masked total: %w", err)
	}
	pk, tag := r.dir[hs], r.tag(phaseUnmask)
	raw, err := r.conn.Recv(ctx, hs, tag)
	if err != nil {
		return fmt.Errorf("hybrid %s: recv from %s: %w", tag, hs, err)
	}
	if len(raw) != pk.FixedLen() {
		transport.PutFrame(raw)
		return &frameError{from: hs, tag: tag, got: len(raw), want: pk.FixedLen()}
	}
	var total paillier.Ciphertext
	err = total.UnmarshalBinary(raw)
	transport.PutFrame(raw)
	if err == nil {
		err = pk.AddInPlace(&total, encM) // refuses a total outside [1, n²)
	}
	if err != nil {
		return &frameError{from: hs, tag: tag, err: err}
	}
	return r.broadcastTotal(ctx, demandSide, hs, tagTotal, &total)
}

// ratios is Hs's side. Its half of step 1 comes first: Enc_hs(−μ) needs
// nothing the fold produces, so it is on its way to the root while the fold
// runs and adds no round to the window's critical path.
func (*hybridBackend) ratios(ctx context.Context, r *windowRun, demandSide, supplySide []string, tagMasked, tagRatios string) (map[string]float64, error) {
	mu, err := r.maskTotal(demandSide, r.tag(phaseFold), shapeWide)
	if err != nil {
		return nil, err
	}
	neg := r.wideInt(mu)
	unmask, err := r.encryptUnder(ctx, r.ID(), neg.Neg(neg))
	if err != nil {
		return nil, fmt.Errorf("distribution: encrypt unmask: %w", err)
	}
	if err := r.sendCipher(ctx, r.dir[r.ID()], unmask, r.aggregationRoot(demandSide), r.tag(phaseUnmask)); err != nil {
		return nil, fmt.Errorf("distribution: send unmask: %w", err)
	}
	return r.collectRatios(ctx, demandSide, supplySide, tagMasked, tagRatios)
}
