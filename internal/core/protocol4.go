package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/pem-go/pem/internal/fixed"
	"github.com/pem-go/pem/internal/market"
	"github.com/pem-go/pem/internal/netem"
	"github.com/pem-go/pem/internal/paillier"
	"github.com/pem-go/pem/internal/transport"
)

// Protocol 4 phases the backends name themselves, next to the tags
// privateDistribution hands them: the demand-side fold (whose tag also
// scopes the hybrid backend's masks) and the hybrid backend's Hs → root
// unmasking ciphertext.
const (
	phaseFold   = "pd/ring"
	phaseUnmask = "pd/unmask"
)

// privateDistribution is Protocol 4: allocate the pairwise trading amounts
// e_ij in proportion to demand (general market) or supply (extreme market)
// without revealing E_b, E_s or any |sn| value.
//
// General market mechanics (extreme market swaps the coalitions):
//
//  1. the buyers aggregate Enc_pks(|sn_j|) under the chosen seller Hs's key
//     (ring or tree topology, Config.Aggregation) — the hybrid backend sums
//     under masks and converts once, see hybridBackend.distributionTotal;
//     the aggregation root broadcasts the encrypted total Enc(E_b) to the
//     whole buyer coalition;
//  2. every buyer homomorphically computes
//     Enc(E_b)^round(S/|sn_j|) = Enc(E_b·S/|sn_j|) — the fixed-point
//     reciprocal trick that sidesteps Paillier's lack of division — and
//     sends it to Hs;
//  3. Hs drains the masked values in arrival order, decrypts them packed
//     — up to Slots() ciphertexts as one plaintext — across the shared
//     crypto worker pool, recovers the demand ratios
//     |sn_j|/E_b = S / (E_b·S/|sn_j|), and broadcasts the ratio vector to
//     the seller coalition (the designed leakage of Lemma 4);
//  4. every seller i routes e_ij = sn_i · ratio_j to each buyer j, who pays
//     m_ji = p·e_ij back; the pairwise exchanges run concurrently per peer.
func (r *windowRun) privateDistribution(ctx context.Context, kind market.Kind, price float64) ([]market.Trade, error) {
	ros := r.ros

	// The "demand side" aggregates its shares; the "supply side" receives
	// the ratios and routes energy. In the extreme market the roles swap.
	demandSide, supplySide := ros.buyers, ros.sellers
	if kind == market.ExtremeMarket {
		demandSide, supplySide = ros.sellers, ros.buyers
	}

	// Hs: hash-chosen member of the supply side.
	hs := supplySide[publicCoin(r.window, "hs", ros.sellers, ros.buyers, len(supplySide))]
	r.ros.hs = hs

	onDemandSide := contains(demandSide, r.ID())
	onSupplySide := contains(supplySide, r.ID())
	r.demandSide = demandSide

	tagRing := r.tag(phaseFold)
	tagTotal := r.tag("pd/total")
	tagMasked := r.tag("pd/masked")
	tagRatios := r.tag("pd/ratios")

	absSn := r.snFixed.Abs()

	// --- Step 1: demand-side aggregation of Enc_hs(|sn|). ---
	if onDemandSide {
		if err := r.backend.distributionTotal(ctx, r, demandSide, hs, tagRing, tagTotal, absSn); err != nil {
			return nil, err
		}
	}

	// --- Steps 2–3: masked reciprocals to Hs; Hs broadcasts ratios. ---
	var ratios map[string]float64
	switch {
	case r.ID() == hs:
		var err error
		ratios, err = r.backend.ratios(ctx, r, demandSide, supplySide, tagMasked, tagRatios)
		if err != nil {
			return nil, err
		}
	case onDemandSide:
		if err := r.backend.maskedReciprocal(ctx, r, hs, tagTotal, tagMasked, absSn); err != nil {
			return nil, err
		}
	}
	if onSupplySide && r.ID() != hs {
		raw, err := r.conn.Recv(ctx, hs, tagRatios)
		if err != nil {
			return nil, fmt.Errorf("distribution: recv ratios: %w", err)
		}
		ratios, err = decodeRatios(raw)
		transport.PutFrame(raw)
		if err != nil {
			return nil, err
		}
	}

	// --- Step 4: pairwise energy routing and payment. ---
	return r.routeAndPay(ctx, kind, price, demandSide, supplySide, ratios)
}

// distributionAggregate folds Enc_hs(|sn|) across the demand side using the
// configured topology; the aggregation root broadcasts the encrypted total
// (Protocol 4 line 5).
func (r *windowRun) distributionAggregate(ctx context.Context, demandSide []string, hs, tagRing, tagTotal string, absSn fixed.Value) error {
	acc, isRoot, err := r.fold(ctx, demandSide, hs, tagRing, r.contribBuf[0].SetInt64(int64(absSn)))
	if err != nil {
		return fmt.Errorf("distribution: %w", err)
	}
	if !isRoot {
		return nil
	}
	return r.broadcastTotal(ctx, demandSide, hs, tagTotal, acc)
}

// broadcastTotal is the aggregation root's end of step 1: fan Enc_hs(total)
// out to the rest of the demand side and keep its own copy in r.encTotal
// for sendMaskedReciprocal. The broadcast settles before it returns, so the
// pooled frame can be recycled immediately after.
func (r *windowRun) broadcastTotal(ctx context.Context, demandSide []string, hs, tagTotal string, total *paillier.Ciphertext) error {
	buf := transport.GetFrame(r.dir[hs].FixedLen())
	out, err := total.AppendFixed(buf[:0], r.dir[hs])
	if err != nil {
		transport.PutFrame(buf)
		return err
	}
	err = r.broadcast(ctx, demandSide, tagTotal, out)
	transport.PutFrame(out)
	if err != nil {
		return err
	}
	r.encTotal = total
	return nil
}

// sendMaskedReciprocal computes Enc(total)^round(S/|sn|) and ships it to Hs
// together with its identity.
func (r *windowRun) sendMaskedReciprocal(ctx context.Context, hs, tagTotal, tagMasked string, absSn fixed.Value) error {
	total := r.encTotal
	if total == nil {
		// Everyone but the aggregation root receives the broadcast total.
		root := r.aggregationRoot(r.demandSide)
		raw, err := r.conn.Recv(ctx, root, tagTotal)
		if err != nil {
			return fmt.Errorf("distribution: recv total: %w", err)
		}
		var ct paillier.Ciphertext
		err = ct.UnmarshalBinary(raw)
		transport.PutFrame(raw)
		if err != nil {
			return fmt.Errorf("distribution: decode total: %w", err)
		}
		total = &ct
	}

	exp, err := fixed.ReciprocalExponent(absSn)
	if err != nil {
		return fmt.Errorf("distribution: reciprocal: %w", err)
	}
	masked, err := r.dir[hs].ScalarMul(total, exp)
	if err != nil {
		return fmt.Errorf("distribution: scalar mul: %w", err)
	}
	return r.sendCipher(ctx, r.dir[hs], masked, hs, tagMasked)
}

// collectRatios is Hs's side: drain each demand-side member's masked value
// in arrival order, decrypt them packed — the n ciphertexts are cut into
// ⌈n/slots⌉ near-equal batches, each handed to the shared crypto worker
// pool the moment its last member arrives and decrypted as one plaintext
// (paillier.DecryptSlots) — recover the allocation ratios and broadcast the
// vector to the supply side. Decryption of complete batches overlaps the
// wait for stragglers.
func (r *windowRun) collectRatios(ctx context.Context, demandSide, supplySide []string, tagMasked, tagRatios string) (map[string]float64, error) {
	n := len(demandSide)
	ids := make([]string, n)
	vals := make([]float64, n)
	store := make([]paillier.Ciphertext, n)
	cts := make([]*paillier.Ciphertext, n)
	slots := r.key.Slots()
	batches := (n + slots - 1) / slots
	errs := make([]error, batches)
	var wg sync.WaitGroup
	i := 0
	for b := range batches {
		lo, hi := i, (b+1)*n/batches
		for ; i < hi; i++ {
			from, raw, err := r.conn.RecvAny(ctx, tagMasked, demandSide)
			if err != nil {
				wg.Wait()
				return nil, fmt.Errorf("distribution: recv masked: %w", err)
			}
			ids[i], cts[i] = from, &store[i]
			err = cts[i].UnmarshalBinary(raw)
			transport.PutFrame(raw)
			if err != nil {
				wg.Wait()
				return nil, fmt.Errorf("distribution: decode masked from %s: %w", from, err)
			}
		}
		r.workers.Go(&wg, func() {
			errs[b] = r.ratiosFromMasked(ids[lo:hi], cts[lo:hi], vals[lo:hi])
		})
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	ratios := make(map[string]float64, n)
	for i, id := range ids {
		ratios[id] = vals[i]
	}
	if len(ratios) != n {
		return nil, fmt.Errorf("distribution: duplicate masked sender")
	}

	payload, err := encodeRatios(ratios)
	if err != nil {
		return nil, err
	}
	if err := r.broadcast(ctx, supplySide, tagRatios, payload); err != nil {
		return nil, err
	}
	return ratios, nil
}

// ratiosFromMasked decrypts one batch of masked values as a single packed
// plaintext and turns every slot into its sender's allocation ratio.
func (r *windowRun) ratiosFromMasked(from []string, cts []*paillier.Ciphertext, ratios []float64) error {
	masked, err := r.key.DecryptSlots(cts)
	if err != nil {
		return fmt.Errorf("distribution: decrypt masked from %v: %w", from, err)
	}
	for i, m := range masked {
		ratio, err := fixed.RatioFromMasked(m)
		if err == nil {
			err = checkRatio(ratio)
		}
		if err != nil {
			return fmt.Errorf("distribution: ratio from %s: %w", from[i], err)
		}
		ratios[i] = ratio
	}
	return nil
}

// routeAndPay is step 4: every supply-side member initiates one exchange
// with every demand-side member; the per-peer exchanges are independent
// request/reply pairs on distinct (peer, tag) queues, so they run
// concurrently.
//
// General market: the initiator is a seller; it routes e_ij =
// sn_i·(|sn_j|/E_b) to buyer j, who replies with the payment m_ji = p·e_ij
// (validated by the seller).
//
// Extreme market: the initiator is a buyer; it requests e_ij =
// |sn_j|·(sn_i/E_s) from seller i and pays m_ji = p·e_ij; the seller
// confirms by echoing the routed amount.
func (r *windowRun) routeAndPay(ctx context.Context, kind market.Kind, price float64, demandSide, supplySide []string, ratios map[string]float64) ([]market.Trade, error) {
	tagEnergy := r.tag("pd/energy")
	tagReply := r.tag("pd/reply")

	// Fork the virtual clock once, at this deterministic point, and give
	// every concurrent exchange its own branch: a reply's virtual timestamp
	// then depends only on the request that exchange received, never on how
	// sibling exchanges happened to interleave in real time.
	forked := r.forkVirtual(ctx)

	switch {
	case contains(supplySide, r.ID()):
		myShare := r.snFixed.Abs().Float()
		ids := demandSide // already sorted (coalition rosters are)
		trades := make([]market.Trade, len(ids))
		errs := make([]error, len(ids))
		var wg sync.WaitGroup
		for i, id := range ids {
			wg.Add(1)
			go func(i int, id string, ctx context.Context) {
				defer wg.Done()
				ratio, ok := ratios[id]
				if !ok {
					errs[i] = fmt.Errorf("distribution: missing ratio for %s", id)
					return
				}
				trades[i], errs[i] = r.exchangeAsSupplier(ctx, kind, price, id, myShare, ratio, tagEnergy, tagReply)
			}(i, id, netem.Branch(forked))
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return trades, nil

	case contains(demandSide, r.ID()):
		errs := make([]error, len(supplySide))
		var wg sync.WaitGroup
		for i, id := range supplySide {
			wg.Add(1)
			go func(i int, id string, ctx context.Context) {
				defer wg.Done()
				errs[i] = r.exchangeAsDemander(ctx, kind, price, id, tagEnergy, tagReply)
			}(i, id, netem.Branch(forked))
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	return nil, nil
}

// exchangeAsSupplier runs one supply-side pairwise exchange: route the
// energy share to peer, await and validate its reply.
func (r *windowRun) exchangeAsSupplier(ctx context.Context, kind market.Kind, price float64, peer string, myShare, ratio float64, tagEnergy, tagReply string) (market.Trade, error) {
	ev, err := fixed.FromFloat(myShare * ratio)
	if err != nil {
		return market.Trade{}, err
	}
	var msg [8]byte
	binary.BigEndian.PutUint64(msg[:], uint64(int64(ev)))
	if err := r.conn.Send(ctx, peer, tagEnergy, msg[:]); err != nil {
		return market.Trade{}, err
	}
	raw, err := r.conn.Recv(ctx, peer, tagReply)
	if err != nil {
		return market.Trade{}, fmt.Errorf("distribution: reply from %s: %w", peer, err)
	}
	if len(raw) != 8 {
		return market.Trade{}, fmt.Errorf("distribution: bad reply from %s", peer)
	}
	reply := fixed.Value(int64(binary.BigEndian.Uint64(raw))).Float()
	transport.PutFrame(raw)

	e := ev.Float() // what was actually put on the wire
	if kind == market.GeneralMarket {
		// Seller initiated; the reply is the buyer's payment.
		if diff := reply - e*price; diff > paymentTolerance || diff < -paymentTolerance {
			return market.Trade{}, fmt.Errorf("distribution: %s paid %.6f for %.6f kWh at %.4f", peer, reply, e, price)
		}
		return market.Trade{Seller: r.ID(), Buyer: peer, Energy: e, Payment: reply}, nil
	}
	// Buyer initiated; the reply confirms the routed energy.
	if diff := reply - e; diff > paymentTolerance || diff < -paymentTolerance {
		return market.Trade{}, fmt.Errorf("distribution: %s confirmed %.6f of %.6f kWh", peer, reply, e)
	}
	return market.Trade{Seller: peer, Buyer: r.ID(), Energy: e, Payment: e * price}, nil
}

// exchangeAsDemander runs one demand-side pairwise exchange: await the
// routed energy from peer and answer with the payment (general market) or
// the routing confirmation (extreme market).
func (r *windowRun) exchangeAsDemander(ctx context.Context, kind market.Kind, price float64, peer, tagEnergy, tagReply string) error {
	raw, err := r.conn.Recv(ctx, peer, tagEnergy)
	if err != nil {
		return fmt.Errorf("distribution: energy from %s: %w", peer, err)
	}
	if len(raw) != 8 {
		return fmt.Errorf("distribution: bad energy from %s", peer)
	}
	e := fixed.Value(int64(binary.BigEndian.Uint64(raw))).Float()
	transport.PutFrame(raw)
	if e < 0 {
		return fmt.Errorf("distribution: negative energy from %s", peer)
	}
	var replyVal float64
	if kind == market.GeneralMarket {
		replyVal = e * price // buyer pays
	} else {
		replyVal = e // seller confirms routing
	}
	rv, err := fixed.FromFloat(replyVal)
	if err != nil {
		return err
	}
	var msg [8]byte
	binary.BigEndian.PutUint64(msg[:], uint64(int64(rv)))
	return r.conn.Send(ctx, peer, tagReply, msg[:])
}

// paymentTolerance absorbs fixed-point rounding in the pay/confirm checks.
const paymentTolerance = 1e-4

// ratioSlack bounds how far above 1 a decoded allocation ratio may land.
// Ratios are |sn_j|/E_b ∈ (0, 1] exactly, but the reciprocal trick rounds
// round(S/|sn_j|) to an integer, which can push the recovered ratio above 1
// by up to |sn_j|/(2S) ≈ 2.5e-4 at the largest representable shares.
const ratioSlack = 1e-3

// checkRatio rejects allocation ratios that cannot come from an honest
// Protocol 4 run: NaN, ±Inf, negative, or above 1 beyond rounding slack.
// Values outside this range would flow straight into routeAndPay trade
// amounts.
func checkRatio(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("non-finite allocation ratio")
	}
	if v < 0 || v > 1+ratioSlack {
		return fmt.Errorf("allocation ratio %g outside [0, 1]", v)
	}
	return nil
}

// encodeRatios serializes a ratio vector as count | (idLen|id|f64)*.
func encodeRatios(ratios map[string]float64) ([]byte, error) {
	ids := make([]string, 0, len(ratios))
	for id := range ratios {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	buf := make([]byte, 0, 4+len(ids)*16)
	var u32 [4]byte
	binary.BigEndian.PutUint32(u32[:], uint32(len(ids)))
	buf = append(buf, u32[:]...)
	for _, id := range ids {
		if len(id) > 0xffff {
			return nil, fmt.Errorf("distribution: party ID too long")
		}
		var u16 [2]byte
		binary.BigEndian.PutUint16(u16[:], uint16(len(id)))
		buf = append(buf, u16[:]...)
		buf = append(buf, id...)
		var f [8]byte
		binary.BigEndian.PutUint64(f[:], math.Float64bits(ratios[id]))
		buf = append(buf, f[:]...)
	}
	return buf, nil
}

// ratioEntryMin is the smallest possible wire size of one ratio entry: a
// 2-byte id length (empty id) plus the 8-byte float.
const ratioEntryMin = 2 + 8

// decodeRatios reverses encodeRatios. The entry count is bounded by the
// remaining payload before any allocation — a corrupt header cannot demand
// a multi-GB map — and every ratio must pass checkRatio before it can
// reach routeAndPay.
func decodeRatios(raw []byte) (map[string]float64, error) {
	if len(raw) < 4 {
		return nil, fmt.Errorf("distribution: truncated ratios")
	}
	n := int(binary.BigEndian.Uint32(raw))
	raw = raw[4:]
	if n > len(raw)/ratioEntryMin {
		return nil, fmt.Errorf("distribution: ratio count %d exceeds payload", n)
	}
	out := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		if len(raw) < 2 {
			return nil, fmt.Errorf("distribution: truncated ratio id length")
		}
		idLen := int(binary.BigEndian.Uint16(raw))
		raw = raw[2:]
		if len(raw) < idLen+8 {
			return nil, fmt.Errorf("distribution: truncated ratio entry")
		}
		id := string(raw[:idLen])
		raw = raw[idLen:]
		v := math.Float64frombits(binary.BigEndian.Uint64(raw))
		raw = raw[8:]
		if err := checkRatio(v); err != nil {
			return nil, fmt.Errorf("distribution: %s: %w", id, err)
		}
		if _, dup := out[id]; dup {
			return nil, fmt.Errorf("distribution: duplicate ratio for %s", id)
		}
		out[id] = v
	}
	if len(raw) != 0 {
		return nil, fmt.Errorf("distribution: trailing ratio bytes")
	}
	return out, nil
}
