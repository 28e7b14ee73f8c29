package core

import (
	"context"
	"errors"
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
//     — up to Slots(width) ciphertexts as one plaintext, the width set by
//     the public share bound, opened modulo its prime p alone — across the
//     shared crypto worker pool, refuses any value that is not narrow
//     (paillier.ErrSlotOverflow), recovers the demand ratios |sn_j|/E_b =
//     S / (E_b·S/|sn_j|), and broadcasts the ratio vector to the seller
//     coalition (the designed leakage of Lemma 4);
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
	var ratios []float64
	switch {
	case r.ID() == hs:
		var err error
		ratios, err = r.backend.ratios(ctx, r, demandSide, supplySide, tagMasked, tagRatios)
		if err != nil {
			return nil, err
		}
	case onDemandSide:
		if err := r.sendMaskedReciprocal(ctx, hs, tagTotal, tagMasked, absSn); err != nil {
			return nil, err
		}
	}
	if onSupplySide && r.ID() != hs {
		var err error
		if ratios, err = r.recvRatios(ctx, hs, tagRatios, len(demandSide)); err != nil {
			return nil, err
		}
	}

	// --- Step 4: pairwise energy routing and payment. ---
	return r.routeAndPay(ctx, kind, price, demandSide, supplySide, ratios)
}

// broadcastTotal is the aggregation root's end of step 1: fan Enc_hs(total)
// out to the rest of the demand side and keep its own copy for
// sendMaskedReciprocal.
func (r *windowRun) broadcastTotal(ctx context.Context, demandSide []string, hs, tagTotal string, total *paillier.Ciphertext) error {
	r.encTotal = total
	return r.sendCipher(ctx, r.dir[hs], total, tagTotal, demandSide...)
}

// sendMaskedReciprocal is Protocol 4 step 2, the same on every backend:
// compute Enc(total)^round(S/|sn|) and ship it to Hs.
func (r *windowRun) sendMaskedReciprocal(ctx context.Context, hs, tagTotal, tagMasked string, absSn fixed.Value) error {
	total := r.encTotal
	if total == nil {
		// Everyone but the aggregation root receives the broadcast total.
		total = new(paillier.Ciphertext)
		if err := r.recvCipher(ctx, r.dir[hs], total, r.aggregationRoot(r.demandSide), tagTotal); err != nil {
			return err
		}
	}

	exp, err := fixed.ReciprocalExponent(absSn)
	if err != nil {
		return fmt.Errorf("reciprocal: %w", err)
	}
	masked, err := r.dir[hs].ScalarMul(total, exp)
	if err != nil {
		return fmt.Errorf("scalar mul: %w", err)
	}
	return r.sendCipher(ctx, r.dir[hs], masked, tagMasked, hs)
}

// collectRatios is Hs's side: drain each demand-side member's masked value
// in arrival order, decrypt them packed — the n ciphertexts are cut into
// ⌈n/slots⌉ near-equal batches of fixed.MaskedProductBits(n)-bit slots (5
// at 1024-bit keys, 1 at 512), each handed to the shared crypto worker pool
// the moment its last member arrives and opened as one plaintext modulo p
// (paillier.DecryptSlots) — recover the allocation ratios, put each at its
// sender's index in the demand side's sorted roster, refuse them unless
// every member decodes (naming the lowest in the roster that does not) and
// they sum (in roster order) to 1, and broadcast the vector to the supply
// side. Decryption of complete batches overlaps the wait for stragglers.
func (r *windowRun) collectRatios(ctx context.Context, demandSide, supplySide []string, tagMasked, tagRatios string) ([]float64, error) {
	n := len(demandSide)
	ids := make([]string, n)
	vals := make([]float64, n)
	store := make([]paillier.Ciphertext, n)
	cts := make([]*paillier.Ciphertext, n)
	errs := make([]error, n)
	width := fixed.MaskedProductBits(n)
	slots := r.key.Slots(width)
	batches := (n + slots - 1) / slots
	var wg sync.WaitGroup
	i := 0
	for b := range batches {
		lo, hi := i, (b+1)*n/batches
		for ; i < hi; i++ {
			var err error
			cts[i] = &store[i]
			if ids[i], err = r.recvAnyCipher(ctx, &r.key.PublicKey, cts[i], demandSide, tagMasked); err != nil {
				wg.Wait()
				return nil, err
			}
		}
		r.workers.Go(&wg, func() {
			r.ratiosFromMasked(ids[lo:hi], cts[lo:hi], vals[lo:hi], errs[lo:hi], width, tagMasked)
		})
	}
	wg.Wait()

	ratios := make([]float64, n)
	placed := make([]bool, n)
	var failed error
	failedAt := n
	for i, id := range ids {
		j := sort.SearchStrings(demandSide, id)
		if placed[j] {
			return nil, &WindowError{Peer: id, Tag: tagMasked, Err: errors.New("duplicate sender")}
		}
		placed[j], ratios[j] = true, vals[i]
		if errs[i] != nil && j < failedAt {
			failed, failedAt = errs[i], j
		}
	}
	if failed != nil {
		return nil, failed
	}
	sum := 0.0
	for _, v := range ratios {
		sum += v
	}
	if math.Abs(sum-1) > paymentTolerance {
		return nil, &RatioSumError{Sum: sum}
	}

	payload := encodeRatios(ratios)
	err := r.broadcast(ctx, supplySide, tagRatios, payload)
	transport.PutFrame(payload)
	if err != nil {
		return nil, err
	}
	return ratios, nil
}

// ratiosFromMasked decrypts one batch of masked values, sent under tag, as a
// single packed plaintext and turns every slot into its sender's allocation
// ratio. A batch that fails is reopened one member at a time, so errs[i]
// names each member at fault rather than the batch it arrived in.
func (r *windowRun) ratiosFromMasked(from []string, cts []*paillier.Ciphertext, ratios []float64, errs []error, width int, tag string) {
	masked, err := r.key.DecryptSlots(cts, width)
	for i := 0; err == nil && i < len(masked); i++ {
		if ratios[i], err = fixed.RatioFromMasked(masked[i]); err == nil {
			err = checkRatio(ratios[i])
		}
	}
	switch {
	case err == nil:
	case len(cts) > 1:
		for i := range cts {
			r.ratiosFromMasked(from[i:i+1], cts[i:i+1], ratios[i:i+1], errs[i:i+1], width, tag)
		}
	default:
		errs[0] = &WindowError{Peer: from[0], Tag: tag, Err: err}
	}
}

// routeAndPay is step 4: every supply-side member initiates one exchange
// with every demand-side member; the per-peer exchanges are independent
// request/reply pairs on distinct (peer, tag) queues, so they run
// concurrently, one loop over this member's counterparties on either side.
//
// General market: the initiator is a seller; it routes e_ij =
// sn_i·(|sn_j|/E_b) to buyer j, who replies with the payment m_ji = p·e_ij
// (validated by the seller).
//
// Extreme market: the initiator is a buyer; it requests e_ij =
// |sn_j|·(sn_i/E_s) from seller i and pays m_ji = p·e_ij; the seller
// confirms by echoing the routed amount.
func (r *windowRun) routeAndPay(ctx context.Context, kind market.Kind, price float64, demandSide, supplySide []string, ratios []float64) ([]market.Trade, error) {
	tagEnergy := r.tag("pd/energy")
	tagReply := r.tag("pd/reply")

	// A supplier trades with the demand side, a demander answers the supply
	// side; rosters are already sorted. Only a supplier records trades.
	supplier := contains(supplySide, r.ID())
	peers, traded := supplySide, 0
	switch {
	case supplier:
		peers, traded = demandSide, len(demandSide)
	case !contains(demandSide, r.ID()):
		return nil, nil
	}
	myShare := r.snFixed.Abs().Float()
	trades := make([]market.Trade, traded)
	errs := make([]error, len(peers))

	// Give every concurrent exchange its own branch of the party's virtual
	// clock (netem.Branch): a reply's virtual timestamp then depends only on
	// the request that exchange received, never on how sibling exchanges
	// happened to interleave in real time.
	var wg sync.WaitGroup
	for i, id := range peers {
		wg.Add(1)
		go func(i int, id string, ctx context.Context) {
			defer wg.Done()
			if !supplier {
				errs[i] = r.exchangeAsDemander(ctx, kind, price, id, tagEnergy, tagReply)
				return
			}
			trades[i], errs[i] = r.exchangeAsSupplier(ctx, kind, price, id, myShare, ratios[i], tagEnergy, tagReply)
		}(i, id, netem.Branch(ctx))
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if !supplier {
		return nil, nil
	}
	return trades, nil
}

// exchangeAsSupplier runs one supply-side pairwise exchange: route the
// energy share to peer, await and validate its reply.
func (r *windowRun) exchangeAsSupplier(ctx context.Context, kind market.Kind, price float64, peer string, myShare, ratio float64, tagEnergy, tagReply string) (market.Trade, error) {
	ev, err := fixed.FromFloat(myShare * ratio)
	if err != nil {
		return market.Trade{}, err
	}
	if err := r.sendShare(ctx, peer, tagEnergy, 1, maskedShare{uint64(int64(ev))}); err != nil {
		return market.Trade{}, err
	}
	rw, err := r.recvShare(ctx, peer, tagReply, 1)
	if err != nil {
		return market.Trade{}, err
	}
	reply := fixed.Value(int64(rw[0])).Float()

	e := ev.Float() // what was actually put on the wire
	if kind == market.GeneralMarket {
		// Seller initiated; the reply is the buyer's payment.
		if diff := reply - e*price; diff > paymentTolerance || diff < -paymentTolerance {
			return market.Trade{}, &WindowError{Peer: peer, Tag: tagReply, Err: fmt.Errorf("paid %.6f for %.6f kWh at %.4f", reply, e, price)}
		}
		return market.Trade{Seller: r.ID(), Buyer: peer, Energy: e, Payment: reply}, nil
	}
	// Buyer initiated; the reply confirms the routed energy.
	if diff := reply - e; diff > paymentTolerance || diff < -paymentTolerance {
		return market.Trade{}, &WindowError{Peer: peer, Tag: tagReply, Err: fmt.Errorf("confirmed %.6f of %.6f kWh", reply, e)}
	}
	return market.Trade{Seller: peer, Buyer: r.ID(), Energy: e, Payment: e * price}, nil
}

// exchangeAsDemander runs one demand-side pairwise exchange: await the
// routed energy from peer and answer with the payment (general market) or
// the routing confirmation (extreme market).
func (r *windowRun) exchangeAsDemander(ctx context.Context, kind market.Kind, price float64, peer, tagEnergy, tagReply string) error {
	ew, err := r.recvShare(ctx, peer, tagEnergy, 1)
	if err != nil {
		return err
	}
	e := fixed.Value(int64(ew[0])).Float()
	if e < 0 {
		return &WindowError{Peer: peer, Tag: tagEnergy, Err: fmt.Errorf("negative energy %g", e)}
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
	return r.sendShare(ctx, peer, tagReply, 1, maskedShare{uint64(int64(rv))})
}

// paymentTolerance absorbs fixed-point rounding in the pay/confirm checks
// and in the sum of a window's allocation ratios.
const paymentTolerance = 1e-4

// RatioSumError refuses a window whose Protocol 4 allocation ratios do not
// sum to 1 within paymentTolerance: trading on them would allocate a member
// more or less than its surplus. Shares within fixed.MaxShare keep an
// honest sum within ≈ 8.4e-6 of 1, so only a tampered masked value gets
// here. It is the cause of the window's *WindowError, which names the window.
type RatioSumError struct {
	Sum float64 // what the decoded ratios summed to
}

// Error names the sum.
func (e *RatioSumError) Error() string {
	return fmt.Sprintf("allocation ratios sum to %.6f, not 1", e.Sum)
}

// ratioSlack bounds how far above 1 a decoded allocation ratio may land.
// Ratios are |sn_j|/E_b ∈ (0, 1] exactly, but the reciprocal trick rounds
// round(S/|sn_j|) to an integer, which can push the recovered ratio above 1
// by up to |sn_j|/(2S), at most ≈ 8.4e-6 at fixed.MaxShare.
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
