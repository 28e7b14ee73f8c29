// Package market implements the plaintext distributed energy-trading model
// of Section III: net-energy classification, the buyer-led Stackelberg game
// with its closed-form equilibrium price, pro-rata pairwise allocation for
// both the general and the extreme market, seller utility / buyer cost
// accounting, and the paper's grid-only baseline ("without PEM").
//
// The cryptographic engine in internal/core computes exactly these
// quantities privately; the integration tests assert that the private and
// plaintext results agree to fixed-point precision.
package market

import (
	"errors"
	"fmt"
	"math"

	"github.com/pem-go/pem/internal/fixed"
)

// Role classifies an agent inside one trading window.
type Role int

// Roles per Section II-A: positive net energy sells, negative buys, zero is
// off-market.
const (
	RoleSeller Role = iota + 1
	RoleBuyer
	RoleOff
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleSeller:
		return "seller"
	case RoleBuyer:
		return "buyer"
	case RoleOff:
		return "off"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Kind distinguishes the two market regimes of Section III-C/D.
type Kind int

// Market regimes: general (supply < demand, Stackelberg price) and extreme
// (supply ≥ demand, price pinned to the lower bound).
const (
	GeneralMarket Kind = iota + 1
	ExtremeMarket
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case GeneralMarket:
		return "general"
	case ExtremeMarket:
		return "extreme"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Params holds the public market constants of Section II-A.
type Params struct {
	// GridSellPrice is pbtg, what the grid pays for fed-in energy
	// (cents/kWh).
	GridSellPrice float64
	// GridRetailPrice is pstg, the grid's retail price (cents/kWh).
	GridRetailPrice float64
	// PriceFloor and PriceCeil are the PEM range [pl, ph] with
	// pbtg < pl ≤ p ≤ ph < pstg (Eq. 3).
	PriceFloor, PriceCeil float64
}

// DefaultParams returns the prices used throughout the paper's evaluation:
// pbtg = 80, pstg = 120, [pl, ph] = [90, 110] cents/kWh.
func DefaultParams() Params {
	return Params{
		GridSellPrice:   80,
		GridRetailPrice: 120,
		PriceFloor:      90,
		PriceCeil:       110,
	}
}

// Validate checks the ordering constraint of Eq. 3.
func (p Params) Validate() error {
	if !(p.GridSellPrice < p.PriceFloor && p.PriceFloor <= p.PriceCeil && p.PriceCeil < p.GridRetailPrice) {
		return fmt.Errorf("market: price ordering violated: pbtg=%.2f pl=%.2f ph=%.2f pstg=%.2f",
			p.GridSellPrice, p.PriceFloor, p.PriceCeil, p.GridRetailPrice)
	}
	if p.GridSellPrice <= 0 {
		return errors.New("market: grid sell price must be positive")
	}
	if !finite(p.GridRetailPrice) {
		return errors.New("market: grid retail price must be finite")
	}
	return nil
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Agent is one smart home / microgrid.
type Agent struct {
	// ID is the unique party identifier.
	ID string
	// K is the load-behaviour preference parameter k_i (> 0).
	K float64
	// Epsilon is the battery loss coefficient ε_i ∈ (0, 1).
	Epsilon float64
	// BatteryCapacity is Cap_i in kWh (0 = no battery).
	BatteryCapacity float64
}

// Validate checks the agent parameter domains from Section III-A.
func (a Agent) Validate() error {
	if a.ID == "" {
		return errors.New("market: agent has empty ID")
	}
	if a.K <= 0 || !finite(a.K) {
		return fmt.Errorf("market: agent %s: preference k must be finite and > 0, got %v", a.ID, a.K)
	}
	if a.Epsilon <= 0 || a.Epsilon >= 1 || !finite(a.Epsilon) {
		return fmt.Errorf("market: agent %s: epsilon must be in (0,1), got %v", a.ID, a.Epsilon)
	}
	if a.BatteryCapacity < 0 || !finite(a.BatteryCapacity) {
		return fmt.Errorf("market: agent %s: battery capacity must be finite and ≥ 0, got %v", a.ID, a.BatteryCapacity)
	}
	return nil
}

// WindowInput is one agent's private data for one trading window.
type WindowInput struct {
	// Generation g_i^t in kWh.
	Generation float64
	// Load l_i^t in kWh.
	Load float64
	// Battery b_i^t in kWh: positive charges, negative discharges.
	Battery float64
}

// NetEnergy computes sn_i^t = g - l - b (Eq. 1).
func (w WindowInput) NetEnergy() float64 {
	return w.Generation - w.Load - w.Battery
}

// ErrShareBound refuses a window in which an agent's share |sn_i^t|
// exceeds the public bound fixed.MaxShare; the refusal names the agent.
var ErrShareBound = fmt.Errorf("share above the public bound of %v kWh", fixed.MaxShare)

// Share is sn_i^t in µkWh, as the protocols carry it. It refuses, naming
// the agent id, a net energy that does not convert or whose magnitude
// exceeds fixed.MaxShare (ErrShareBound).
func (w WindowInput) Share(id string) (fixed.Value, error) {
	sn, err := fixed.FromFloat(w.NetEnergy())
	if err != nil {
		return 0, fmt.Errorf("agent %s: net energy: %w", id, err)
	}
	if sn.Abs() > fixed.MaxShare {
		return 0, fmt.Errorf("agent %s: %v kWh: %w", id, sn, ErrShareBound)
	}
	return sn, nil
}

// offMarketEpsilon (kWh) is the residual below which clearing books no grid
// trade for an agent. It is not the role threshold: see ClassifyRole.
const offMarketEpsilon = 1e-9

// ClassifyRole returns the role implied by net energy sn (kWh), at the
// protocols' resolution: a party takes its role from the sign of
// fixed.FromFloat(sn) — micro-kWh, rounded half away from zero — so a net
// energy under half a micro-kWh is off-market, and the plaintext oracle
// must seat exactly the coalitions the protocols do. The comparison is
// FromFloat's own arithmetic (round(x) ≥ 1 ⇔ x ≥ 0.5) without its error
// path; NaN is off-market.
func ClassifyRole(sn float64) Role {
	scaled := sn * fixed.Scale
	switch {
	case scaled >= 0.5:
		return RoleSeller
	case scaled <= -0.5:
		return RoleBuyer
	default:
		return RoleOff
	}
}

// SellerUtility is U_i^t of Eq. 4:
//
//	U = k·log(1 + l + ε·b) + p·(g − l − b)
//
// The log argument must stay positive; callers clamp loads accordingly.
func SellerUtility(k, epsilon, load, gen, battery, price float64) float64 {
	return k*math.Log(1+load+epsilon*battery) + price*(gen-load-battery)
}

// OptimalLoad is the follower's best response l*_i, clamped to be
// non-negative (loads cannot be negative; the clamp corresponds to the
// boundary optimum of the concave utility).
//
// Reproduction note: the paper's Eq. 9/10/15 write the best response as
// l* = k·ε/p − 1 − ε·b, but that contradicts its own Eq. 4 (whose true
// derivative in l is k/(1+l+εb), without ε), its Eq. 8 second derivative,
// and its Eq. 13 price (whose derivation requires l* = k/p − 1 − ε·b; with
// the ε the numerator of Eq. 13 would be Σk_iε_i rather than Σk_i). We
// implement the self-consistent system — l* = k/p − 1 − ε·b — so that the
// equilibrium properties proved in Lemma 1 actually hold; the property
// tests verify both the first-order condition and the no-profitable-
// deviation guarantee against Eq. 4 as printed.
func OptimalLoad(k, epsilon, battery, price float64) float64 {
	l := k/price - 1 - epsilon*battery
	if l < 0 {
		return 0
	}
	return l
}

// SellerParams bundles the per-seller quantities entering the price formula.
type SellerParams struct {
	// K is the seller's preference parameter k_i.
	K float64
	// Epsilon is its battery loss coefficient ε_i.
	Epsilon float64
	// Gen is its generation g_i for the window (kWh).
	Gen float64
	// Battery is its battery schedule b_i for the window (kWh).
	Battery float64
}

// PriceTerm is the seller's contribution g_i + 1 + ε_i·b_i − b_i to the
// denominator of Eq. 13 (the quantity aggregated in Protocol 3).
func (s SellerParams) PriceTerm() float64 {
	return s.Gen + 1 + s.Epsilon*s.Battery - s.Battery
}

// RawOptimalPrice computes p̂ of Eq. 13 from the two seller aggregates.
func RawOptimalPrice(sumK, sumPriceTerm, gridRetail float64) (float64, error) {
	if sumK <= 0 || sumPriceTerm <= 0 {
		return 0, fmt.Errorf("market: degenerate aggregates sumK=%v sumTerm=%v", sumK, sumPriceTerm)
	}
	return math.Sqrt(gridRetail * sumK / sumPriceTerm), nil
}

// ClampPrice applies Eq. 14.
func ClampPrice(pHat, floor, ceil float64) float64 {
	switch {
	case pHat < floor:
		return floor
	case pHat > ceil:
		return ceil
	default:
		return pHat
	}
}

// OptimalPrice computes the equilibrium price p* for the general market
// from the individual seller parameters (Eqs. 13–14).
func OptimalPrice(sellers []SellerParams, params Params) (pHat, pStar float64, err error) {
	if len(sellers) == 0 {
		return 0, 0, errors.New("market: no sellers")
	}
	var sumK, sumTerm float64
	for _, s := range sellers {
		sumK += s.K
		sumTerm += s.PriceTerm()
	}
	pHat, err = RawOptimalPrice(sumK, sumTerm, params.GridRetailPrice)
	if err != nil {
		return 0, 0, err
	}
	return pHat, ClampPrice(pHat, params.PriceFloor, params.PriceCeil), nil
}

// CoalitionCost is Γ^t of Eq. 7 for the general market: the buyer coalition
// pays p for the whole market supply and retail for the uncovered residue.
func CoalitionCost(price, supply, demand, gridRetail float64) float64 {
	return price*supply + gridRetail*(demand-supply)
}
