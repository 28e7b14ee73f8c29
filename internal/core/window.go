package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
	"sort"
	"strconv"
	"sync"

	"github.com/pem-go/pem/internal/fixed"
	"github.com/pem-go/pem/internal/market"
	"github.com/pem-go/pem/internal/netem"
	"github.com/pem-go/pem/internal/paillier"
	"github.com/pem-go/pem/internal/transport"
)

// roster is the public per-window view every party derives identically:
// the sorted coalition membership and the hash-selected special parties.
type roster struct {
	window  int
	all     []string // every party, sorted
	sellers []string // sorted seller coalition
	buyers  []string // sorted buyer coalition

	hr1 string // random seller decrypting Rb (Protocol 2)
	hr2 string // random buyer decrypting Rs (Protocol 2)
	hb  string // random buyer computing the price (Protocol 3)
	hs  string // random counterparty decrypting ratios (Protocol 4);
	// a seller in general markets, a buyer in extreme ones (chosen lazily).
}

func (r *roster) isSeller(id string) bool { return contains(r.sellers, id) }
func (r *roster) isBuyer(id string) bool  { return contains(r.buyers, id) }

func contains(sorted []string, id string) bool {
	i := sort.SearchStrings(sorted, id)
	return i < len(sorted) && sorted[i] == id
}

// coinFree recycles the public-coin hash input buffers across windows.
var coinFree = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// publicCoin derives a deterministic index from the window, the rosters and
// a domain separator — the shared randomness replacing the paper's
// "randomly choose H…" without a trusted dealer. The hash input is built
// in a recycled buffer and digested with sha256.Sum256, byte-identical to
// the original fmt/hash.Hash formulation.
func publicCoin(window int, domain string, sellers, buyers []string, n int) int {
	bp := coinFree.Get().(*[]byte)
	b := append((*bp)[:0], "pem/coin/"...)
	b = append(b, domain...)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(window), 10)
	for _, s := range sellers {
		b = append(b, 0)
		b = append(b, s...)
	}
	for _, s := range buyers {
		b = append(b, 1)
		b = append(b, s...)
	}
	sum := sha256.Sum256(b)
	*bp = b
	coinFree.Put(bp)
	return int(binary.BigEndian.Uint64(sum[:8]) % uint64(n))
}

// fillRoster populates a (possibly recycled) roster in place once coalition
// membership is known.
func fillRoster(r *roster, window int, all, sellers, buyers []string) *roster {
	r.window = window
	r.all = all
	r.sellers = sellers
	r.buyers = buyers
	r.hr1, r.hr2, r.hb, r.hs = "", "", "", ""
	if len(sellers) > 0 {
		r.hr1 = sellers[publicCoin(window, "hr1", sellers, buyers, len(sellers))]
	}
	if len(buyers) > 0 {
		r.hr2 = buyers[publicCoin(window, "hr2", sellers, buyers, len(buyers))]
		r.hb = buyers[publicCoin(window, "hb", sellers, buyers, len(buyers))]
	}
	return r
}

// buildRoster fills the selection fields on a fresh roster.
func buildRoster(window int, all, sellers, buyers []string) *roster {
	return fillRoster(new(roster), window, all, sellers, buyers)
}

// windowRun is one party's protocol-run object for a single trading
// window: its private view of the window, the window-scoped randomness
// stream and the window's tag namespace. It embeds the session layer
// (*Party) for keys, directory, transport and nonce pools, but owns no
// state shared with other windows — which is what makes it safe for the
// scheduler to keep several windows in flight on the same party.
type windowRun struct {
	*Party
	window int
	// random is this window's derived randomness stream (see
	// Party.windowRandom); never shared across windows.
	random io.Reader
	input  market.WindowInput
	// snFixed is the fixed-point net energy sn_i^t.
	snFixed fixed.Value
	role    market.Role
	// nonce is the Protocol 2 masking nonce r_i, drawn once per window.
	nonce uint64
	ros   *roster

	// Protocol 4 scratch: the demand-side roster for this window and, for
	// the ring broadcaster, its own copy of the encrypted total.
	demandSide []string
	encTotal   *paillier.Ciphertext

	// Recycled scratch, reused across the windows this run object serves
	// (see Party.getRun): the role-collection slices backing the roster,
	// the roster itself, the Protocol 2 ring orders, the hybrid backend's
	// mask-derivation buffer and two big.Int contribution scratches.
	sellersBuf, buyersBuf []string
	ringABuf, ringBBuf    []string
	rosBuf                roster
	hashBuf               []byte
	contribBuf            [2]big.Int
}

// getRun acquires a protocol-run object for one window, recycled from the
// party's pool when available. The recycled scratch buffers keep their
// capacity; every window-scoped field is reset here.
func (p *Party) getRun(window int, input market.WindowInput, snFixed fixed.Value) *windowRun {
	r, _ := p.runFree.Get().(*windowRun)
	if r == nil {
		r = &windowRun{Party: p}
	}
	r.window = window
	r.random = p.windowRandom(window)
	r.input = input
	r.snFixed = snFixed
	r.role = market.RoleOff
	r.nonce = 0
	r.ros = nil
	r.demandSide = nil
	r.encTotal = nil
	return r
}

// putRun returns a finished run object to the party's pool, releasing its
// seeded PRNG stream and dropping every reference that must not outlive
// the window. Safe only once the window has fully joined (runWindow defers
// it after all per-window goroutines are waited out).
func (p *Party) putRun(r *windowRun) {
	releasePRNG(r.random)
	r.random = nil
	r.input = market.WindowInput{}
	r.ros = nil
	r.demandSide = nil
	r.encTotal = nil
	p.runFree.Put(r)
}

// tag scopes a message tag under this window's transport namespace — and,
// for engines inside a coalition grid, under the engine's coalition
// namespace on top of it.
func (r *windowRun) tag(parts string) string {
	return transport.ScopedWindowTag(r.scope, r.window, parts)
}

// forkVirtual snapshots this window's virtual-time lane into the context —
// the fork point for phases that run concurrent sub-exchanges on one party
// (see netem.Conn.ForkLane). Callers Branch the result per goroutine, so
// each exchange's send timestamps depend only on the messages it received,
// keeping virtual-latency accounting deterministic under any interleaving.
// Without network emulation the context passes through unchanged.
func (r *windowRun) forkVirtual(ctx context.Context) context.Context {
	c := r.conn
	for {
		switch v := c.(type) {
		case *netem.Conn:
			return v.ForkLane(ctx, r.scope, r.window)
		case interface{ Inner() transport.Conn }:
			c = v.Inner()
		default:
			return ctx
		}
	}
}

// runWindow is Protocol 1 from one party's perspective.
func (p *Party) runWindow(ctx context.Context, window int, input market.WindowInput) (*partyReport, error) {
	snFixed, err := fixed.FromFloat(input.NetEnergy())
	if err != nil {
		return nil, fmt.Errorf("window %d: net energy: %w", window, err)
	}
	r := p.getRun(window, input, snFixed)
	defer p.putRun(r)
	r.role = market.ClassifyRole(input.NetEnergy()) // the sign of snFixed
	r.nonce, err = r.drawNonce()
	if err != nil {
		return nil, err
	}

	// Phase 0: role announcement — coalition membership is public.
	if err := r.announceRoles(ctx); err != nil {
		return nil, fmt.Errorf("window %d: roles: %w", window, err)
	}
	rep := &partyReport{
		sellerCount: len(r.ros.sellers),
		buyerCount:  len(r.ros.buyers),
	}

	// Degenerate coalitions: no protocols; grid handles everything
	// (Protocol 1 initialization rule).
	if len(r.ros.sellers) == 0 {
		rep.kind = market.GeneralMarket
		rep.price = p.cfg.Params.GridRetailPrice
		rep.degenerate = true
		return rep, nil
	}
	if len(r.ros.buyers) == 0 {
		rep.kind = market.ExtremeMarket
		rep.price = p.cfg.Params.PriceFloor
		rep.degenerate = true
		return rep, nil
	}

	// Phase 1: Private Market Evaluation (Protocol 2).
	kind, err := r.privateMarketEvaluation(ctx)
	if err != nil {
		return nil, fmt.Errorf("window %d: market evaluation: %w", window, err)
	}
	rep.kind = kind

	// Phase 2: price discovery.
	if kind == market.GeneralMarket {
		price, pHat, err := r.privatePricing(ctx)
		if err != nil {
			return nil, fmt.Errorf("window %d: pricing: %w", window, err)
		}
		rep.price = price
		rep.pHat = pHat
	} else {
		rep.price = p.cfg.Params.PriceFloor
	}

	// Phase 3: Private Distribution (Protocol 4).
	trades, err := r.privateDistribution(ctx, kind, rep.price)
	if err != nil {
		return nil, fmt.Errorf("window %d: distribution: %w", window, err)
	}
	rep.sellerTrades = trades
	return rep, nil
}

// Protocol 2's widths: each party's masking nonce r_i is drawn below
// 2^nonceBits, and the garbled circuit compares the masked totals Rb and Rs
// (uint64s) as compareBits-bit integers.
const (
	nonceBits   = 40
	compareBits = 64
)

// drawNonce samples the Protocol 2 masking nonce in [0, 2^nonceBits).
func (r *windowRun) drawNonce() (uint64, error) {
	var buf [8]byte
	if _, err := r.random.Read(buf[:]); err != nil {
		return 0, fmt.Errorf("draw nonce: %w", err)
	}
	return binary.BigEndian.Uint64(buf[:]) >> (64 - nonceBits), nil
}

// announceRoles broadcasts this party's role and collects everyone else's,
// then builds the deterministic roster. The fleet roster is the session's
// cached sorted copy, and the coalition slices and roster object are this
// run's recycled scratch, so a steady-state window allocates nothing here.
func (r *windowRun) announceRoles(ctx context.Context) error {
	tag := r.tag("role")
	msg := [1]byte{byte(r.role)}
	all := r.allSorted

	if err := r.broadcast(ctx, all, tag, msg[:]); err != nil {
		return err
	}
	sellers, buyers := r.sellersBuf[:0], r.buyersBuf[:0]
	switch r.role {
	case market.RoleSeller:
		sellers = append(sellers, r.ID())
	case market.RoleBuyer:
		buyers = append(buyers, r.ID())
	}
	for _, id := range all {
		if id == r.ID() {
			continue
		}
		raw, err := r.conn.Recv(ctx, id, tag)
		if err != nil {
			return err
		}
		if len(raw) != 1 {
			return fmt.Errorf("bad role announcement from %s", id)
		}
		role := market.Role(raw[0])
		transport.PutFrame(raw)
		switch role {
		case market.RoleSeller:
			sellers = append(sellers, id)
		case market.RoleBuyer:
			buyers = append(buyers, id)
		case market.RoleOff:
		default:
			return fmt.Errorf("invalid role %d from %s", role, id)
		}
	}
	sort.Strings(sellers)
	sort.Strings(buyers)
	r.sellersBuf, r.buyersBuf = sellers, buyers
	r.ros = fillRoster(&r.rosBuf, r.window, all, sellers, buyers)
	return nil
}
