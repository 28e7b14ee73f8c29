package market

import (
	"fmt"
	"math"
	mrand "math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/pem-go/pem/internal/fixed"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestNetEnergyAndClassification(t *testing.T) {
	cases := []struct {
		in   WindowInput
		net  float64
		role Role
	}{
		{WindowInput{Generation: 5, Load: 3, Battery: 1}, 1, RoleSeller},
		{WindowInput{Generation: 2, Load: 3, Battery: 0}, -1, RoleBuyer},
		{WindowInput{Generation: 3, Load: 3, Battery: 0}, 0, RoleOff},
		{WindowInput{Generation: 3, Load: 2, Battery: -1}, 2, RoleSeller}, // discharge adds supply
	}
	for i, c := range cases {
		if got := c.in.NetEnergy(); !almostEqual(got, c.net, 1e-12) {
			t.Errorf("case %d: net = %v, want %v", i, got, c.net)
		}
		if got := ClassifyRole(c.in.NetEnergy()); got != c.role {
			t.Errorf("case %d: role = %v, want %v", i, got, c.role)
		}
	}
}

// TestClassifyRoleIsTheFixedPointSign pins ClassifyRole to the rule the
// protocol parties apply, the sign of fixed.FromFloat: at the half
// micro-kWh boundary, one ulp either side of it, and over seeded draws
// spread across the micro-kWh scale.
func TestClassifyRoleIsTheFixedPointSign(t *testing.T) {
	half := 0.5 / fixed.Scale
	values := []float64{
		0, half, -half,
		math.Nextafter(half, 0), math.Nextafter(half, 1), math.Nextafter(-half, 0), math.Nextafter(-half, -1),
		1e-9, -1e-9, 2e-9, 1e-6, -1e-6, 0.3, -0.3, 4.6e-7, 5.4e-7,
	}
	rng := mrand.New(mrand.NewSource(606))
	for i := 0; i < 2000; i++ {
		values = append(values, (rng.Float64()-0.5)*math.Pow(10, float64(rng.Intn(8)-8)))
	}
	for _, sn := range values {
		v, err := fixed.FromFloat(sn)
		if err != nil {
			t.Fatal(err)
		}
		want := RoleOff
		switch {
		case v > 0:
			want = RoleSeller
		case v < 0:
			want = RoleBuyer
		}
		if got := ClassifyRole(sn); got != want {
			t.Errorf("ClassifyRole(%g) = %v, but FromFloat gives %d (%v)", sn, got, v, want)
		}
	}
	if got := ClassifyRole(math.NaN()); got != RoleOff {
		t.Errorf("ClassifyRole(NaN) = %v, want off-market", got)
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	bad := []Params{
		{GridSellPrice: 90, GridRetailPrice: 120, PriceFloor: 80, PriceCeil: 110}, // pl < pbtg
		{GridSellPrice: 80, GridRetailPrice: 100, PriceFloor: 90, PriceCeil: 110}, // ph > pstg
		{GridSellPrice: 80, GridRetailPrice: 120, PriceFloor: 110, PriceCeil: 90}, // floor > ceil
		{GridSellPrice: -1, GridRetailPrice: 120, PriceFloor: 90, PriceCeil: 110}, // negative
		{GridSellPrice: 80, GridRetailPrice: math.Inf(1), PriceFloor: 90, PriceCeil: 110},
		{GridSellPrice: 80, GridRetailPrice: math.NaN(), PriceFloor: 90, PriceCeil: 110},
		{GridSellPrice: 80, GridRetailPrice: 120, PriceFloor: math.NaN(), PriceCeil: 110},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestAgentValidate(t *testing.T) {
	good := Agent{ID: "h1", K: 20, Epsilon: 0.9}
	if err := good.Validate(); err != nil {
		t.Errorf("valid agent rejected: %v", err)
	}
	bad := []Agent{
		{ID: "", K: 20, Epsilon: 0.9},
		{ID: "x", K: 0, Epsilon: 0.9},
		{ID: "x", K: 20, Epsilon: 0},
		{ID: "x", K: 20, Epsilon: 1},
		{ID: "x", K: 20, Epsilon: 0.9, BatteryCapacity: -1},
		{ID: "x", K: math.NaN(), Epsilon: 0.9},
		{ID: "x", K: math.Inf(1), Epsilon: 0.9},
		{ID: "x", K: 20, Epsilon: math.NaN()},
		{ID: "x", K: 20, Epsilon: 0.9, BatteryCapacity: math.NaN()},
		{ID: "x", K: 20, Epsilon: 0.9, BatteryCapacity: math.Inf(1)},
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("case %d: invalid agent accepted", i)
		}
	}
}

func TestOptimalPriceHandComputed(t *testing.T) {
	// Single seller, k=100, eps=0.5, g=2, b=0:
	// p̂ = sqrt(120·100 / (2+1)) = sqrt(4000) ≈ 63.2456 → clamped to 90.
	params := DefaultParams()
	pHat, pStar, err := OptimalPrice([]SellerParams{{K: 100, Epsilon: 0.5, Gen: 2}}, params)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(pHat, math.Sqrt(4000), 1e-9) {
		t.Errorf("pHat = %v", pHat)
	}
	if pStar != 90 {
		t.Errorf("pStar = %v, want clamped 90", pStar)
	}

	// Aggregates that land inside the range: sumK=85, sumTerm=1.05 per
	// seller ⇒ p̂ = sqrt(120·85/1.05) ≈ 98.56.
	pHat, pStar, err = OptimalPrice([]SellerParams{{K: 85, Epsilon: 0.9, Gen: 0.05}}, params)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(120 * 85 / 1.05)
	if !almostEqual(pHat, want, 1e-9) || !almostEqual(pStar, want, 1e-9) {
		t.Errorf("pHat=%v pStar=%v want %v", pHat, pStar, want)
	}
}

func TestClampPrice(t *testing.T) {
	if ClampPrice(50, 90, 110) != 90 {
		t.Error("low clamp failed")
	}
	if ClampPrice(150, 90, 110) != 110 {
		t.Error("high clamp failed")
	}
	if ClampPrice(100, 90, 110) != 100 {
		t.Error("interior value clamped")
	}
}

func TestOptimalPriceErrors(t *testing.T) {
	params := DefaultParams()
	if _, _, err := OptimalPrice(nil, params); err == nil {
		t.Error("no sellers: want error")
	}
	if _, err := RawOptimalPrice(0, 1, 120); err == nil {
		t.Error("zero sumK: want error")
	}
	if _, err := RawOptimalPrice(1, 0, 120); err == nil {
		t.Error("zero denominator: want error")
	}
}

func TestOptimalLoadFirstOrderCondition(t *testing.T) {
	// At an interior optimum, dU/dl = k/(1+l+εb) − p = 0 (the true
	// derivative of Eq. 4; see the OptimalLoad doc comment about the
	// paper's Eq. 9 typo).
	k, eps, b, p := 500.0, 0.8, 0.5, 95.0
	l := OptimalLoad(k, eps, b, p)
	if l <= 0 {
		t.Fatalf("expected interior optimum, got %v", l)
	}
	deriv := k/(1+l+eps*b) - p
	if !almostEqual(deriv, 0, 1e-9) {
		t.Errorf("first-order condition violated: %v", deriv)
	}
}

func TestOptimalLoadClamped(t *testing.T) {
	// k·ε/p − 1 − εb < 0 ⇒ clamp at 0.
	if l := OptimalLoad(20, 0.9, 0, 100); l != 0 {
		t.Errorf("want clamp to 0, got %v", l)
	}
}

func TestOptimalLoadMaximizesUtilityProperty(t *testing.T) {
	// No unilateral deviation of the load improves the seller's utility
	// (Lemma 1: U is concave in l).
	rng := mrand.New(mrand.NewSource(1))
	if err := quick.Check(func(kRaw, epsRaw, bRaw, pRaw uint16) bool {
		k := 50 + float64(kRaw%500)
		eps := 0.1 + 0.8*float64(epsRaw%1000)/1000
		b := float64(bRaw%100) / 100
		p := 90 + float64(pRaw%21)
		gen := 1.0
		lStar := OptimalLoad(k, eps, b, p)
		uStar := SellerUtility(k, eps, lStar, gen, b, p)
		for i := 0; i < 8; i++ {
			dev := lStar + (rng.Float64()*2-1)*0.5
			if dev < 0 || 1+dev+eps*b <= 0 {
				continue
			}
			if SellerUtility(k, eps, dev, gen, b, p) > uStar+1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestOptimalPriceMinimizesCoalitionCostProperty(t *testing.T) {
	// Γ(p) with the sellers' best-response loads substituted is strictly
	// convex (Eq. 11); the unclamped p̂ must beat any perturbation.
	params := DefaultParams()
	rng := mrand.New(mrand.NewSource(2))
	gamma := func(sellers []SellerParams, p, demand float64) float64 {
		// Γ = p·E_s(p) + pstg·(E_b − E_s(p)), E_s(p) = Σ(g − l*(p) − b).
		var supply float64
		for _, s := range sellers {
			l := s.K/p - 1 - s.Epsilon*s.Battery // unclamped best response
			supply += s.Gen - l - s.Battery
		}
		return p*supply + params.GridRetailPrice*(demand-supply)
	}
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(5)
		sellers := make([]SellerParams, n)
		for i := range sellers {
			sellers[i] = SellerParams{
				K:       60 + rng.Float64()*60,
				Epsilon: 0.5 + rng.Float64()*0.4,
				Gen:     rng.Float64() * 0.2,
				Battery: rng.Float64() * 0.05,
			}
		}
		pHat, _, err := OptimalPrice(sellers, params)
		if err != nil {
			t.Fatal(err)
		}
		demand := 100.0
		base := gamma(sellers, pHat, demand)
		for _, delta := range []float64{-5, -1, -0.1, 0.1, 1, 5} {
			p := pHat + delta
			if p <= 0 {
				continue
			}
			if gamma(sellers, p, demand) < base-1e-6 {
				t.Fatalf("trial %d: price %v beats p̂ %v", trial, p, pHat)
			}
		}
	}
}

// fourAgents is a hand-checkable scenario: two sellers, two buyers,
// supply < demand (general market).
func fourAgents() ([]Agent, []WindowInput) {
	agents := []Agent{
		{ID: "s1", K: 85, Epsilon: 0.9},
		{ID: "s2", K: 85, Epsilon: 0.9},
		{ID: "b1", K: 85, Epsilon: 0.9},
		{ID: "b2", K: 85, Epsilon: 0.9},
	}
	inputs := []WindowInput{
		{Generation: 3, Load: 1}, // net +2
		{Generation: 2, Load: 1}, // net +1
		{Generation: 0, Load: 4}, // net −4
		{Generation: 0, Load: 2}, // net −2
	}
	return agents, inputs
}

func TestClearGeneralMarket(t *testing.T) {
	agents, inputs := fourAgents()
	params := DefaultParams()
	c, err := Clear(agents, inputs, params)
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind != GeneralMarket {
		t.Fatalf("kind = %v", c.Kind)
	}
	if !almostEqual(c.Supply, 3, 1e-12) || !almostEqual(c.Demand, 6, 1e-12) {
		t.Fatalf("supply/demand = %v/%v", c.Supply, c.Demand)
	}
	// All supply is sold: Σ trades = E_s.
	var traded float64
	for _, tr := range c.Trades {
		traded += tr.Energy
	}
	if !almostEqual(traded, c.Supply, 1e-9) {
		t.Errorf("traded %v, want full supply %v", traded, c.Supply)
	}
	// Buyer shares proportional to demand: b1 gets 2/3 of supply.
	var b1got float64
	for _, tr := range c.Trades {
		if tr.Buyer == "b1" {
			b1got += tr.Energy
		}
	}
	if !almostEqual(b1got, 3*4.0/6.0, 1e-9) {
		t.Errorf("b1 received %v, want 2", b1got)
	}
	// Payments consistent with price.
	for _, tr := range c.Trades {
		if !almostEqual(tr.Payment, tr.Energy*c.Price, 1e-9) {
			t.Errorf("trade payment mismatch: %+v price %v", tr, c.Price)
		}
	}
	// Buyers' uncovered demand reaches the grid.
	gi := c.GridInteraction()
	if !almostEqual(gi, c.Demand-c.Supply, 1e-9) {
		t.Errorf("grid interaction %v, want %v", gi, c.Demand-c.Supply)
	}
}

func TestClearExtremeMarket(t *testing.T) {
	agents := []Agent{
		{ID: "s1", K: 85, Epsilon: 0.9},
		{ID: "s2", K: 85, Epsilon: 0.9},
		{ID: "b1", K: 85, Epsilon: 0.9},
	}
	inputs := []WindowInput{
		{Generation: 5, Load: 1}, // +4
		{Generation: 3, Load: 1}, // +2
		{Generation: 0, Load: 3}, // −3
	}
	params := DefaultParams()
	c, err := Clear(agents, inputs, params)
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind != ExtremeMarket {
		t.Fatalf("kind = %v", c.Kind)
	}
	if c.Price != params.PriceFloor {
		t.Errorf("price = %v, want floor %v", c.Price, params.PriceFloor)
	}
	// All demand covered by the market.
	var traded float64
	for _, tr := range c.Trades {
		traded += tr.Energy
	}
	if !almostEqual(traded, c.Demand, 1e-9) {
		t.Errorf("traded %v, want full demand %v", traded, c.Demand)
	}
	// Seller shares proportional to supply: s1 sells 4/6 of demand.
	var s1sold float64
	for _, tr := range c.Trades {
		if tr.Seller == "s1" {
			s1sold += tr.Energy
		}
	}
	if !almostEqual(s1sold, 3*4.0/6.0, 1e-9) {
		t.Errorf("s1 sold %v, want 2", s1sold)
	}
	// Sellers' surplus feeds the grid.
	if !almostEqual(c.GridInteraction(), c.Supply-c.Demand, 1e-9) {
		t.Errorf("grid interaction %v", c.GridInteraction())
	}
}

func TestClearNoSellers(t *testing.T) {
	agents := []Agent{{ID: "b1", K: 85, Epsilon: 0.9}, {ID: "b2", K: 85, Epsilon: 0.9}}
	inputs := []WindowInput{{Load: 2}, {Load: 1}}
	params := DefaultParams()
	c, err := Clear(agents, inputs, params)
	if err != nil {
		t.Fatal(err)
	}
	if c.Price != params.GridRetailPrice {
		t.Errorf("price = %v, want retail", c.Price)
	}
	if len(c.Trades) != 0 {
		t.Error("no trades expected")
	}
	if !almostEqual(c.TotalBuyerCost(), 3*params.GridRetailPrice, 1e-9) {
		t.Errorf("cost = %v", c.TotalBuyerCost())
	}
}

func TestClearNoBuyers(t *testing.T) {
	agents := []Agent{{ID: "s1", K: 85, Epsilon: 0.9}}
	inputs := []WindowInput{{Generation: 2}}
	c, err := Clear(agents, inputs, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Trades) != 0 {
		t.Error("no trades expected")
	}
	if !almostEqual(c.Outcomes[0].Revenue, 2*80, 1e-9) {
		t.Errorf("seller revenue = %v, want 160", c.Outcomes[0].Revenue)
	}
}

func TestClearInputMismatch(t *testing.T) {
	if _, err := Clear([]Agent{{ID: "a", K: 1, Epsilon: 0.5}}, nil, DefaultParams()); err == nil {
		t.Error("length mismatch: want error")
	}
}

func TestIndividualRationality(t *testing.T) {
	// Theorem 2 part 1: every agent does at least as well with PEM as with
	// the grid-only baseline.
	agents, inputs := fourAgents()
	params := DefaultParams()
	pem, err := Clear(agents, inputs, params)
	if err != nil {
		t.Fatal(err)
	}
	base, err := BaselineClear(agents, inputs, params)
	if err != nil {
		t.Fatal(err)
	}
	for i := range agents {
		p, b := pem.Outcomes[i], base.Outcomes[i]
		switch p.Role {
		case RoleSeller:
			if p.Revenue < b.Revenue-1e-9 {
				t.Errorf("seller %s: PEM revenue %v < baseline %v", p.ID, p.Revenue, b.Revenue)
			}
		case RoleBuyer:
			if p.Cost > b.Cost+1e-9 {
				t.Errorf("buyer %s: PEM cost %v > baseline %v", p.ID, p.Cost, b.Cost)
			}
		}
	}
}

func TestIndividualRationalityProperty(t *testing.T) {
	rng := mrand.New(mrand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(10)
		agents := make([]Agent, n)
		inputs := make([]WindowInput, n)
		for i := range agents {
			agents[i] = Agent{
				ID:      "h" + string(rune('A'+i)),
				K:       60 + rng.Float64()*60,
				Epsilon: 0.5 + rng.Float64()*0.4,
			}
			inputs[i] = WindowInput{
				Generation: rng.Float64() * 0.2,
				Load:       rng.Float64() * 0.2,
				Battery:    (rng.Float64() - 0.5) * 0.02,
			}
		}
		params := DefaultParams()
		pem, err := Clear(agents, inputs, params)
		if err != nil {
			t.Fatal(err)
		}
		base, err := BaselineClear(agents, inputs, params)
		if err != nil {
			t.Fatal(err)
		}
		for i := range agents {
			p, b := pem.Outcomes[i], base.Outcomes[i]
			if p.Role == RoleSeller && p.Revenue < b.Revenue-1e-9 {
				t.Fatalf("trial %d: seller %s worse off", trial, p.ID)
			}
			if p.Role == RoleBuyer && p.Cost > b.Cost+1e-9 {
				t.Fatalf("trial %d: buyer %s worse off", trial, p.ID)
			}
		}
		// Coalition cost must not exceed the baseline total (Fig 6c).
		if pem.TotalBuyerCost() > base.TotalBuyerCost()+1e-9 {
			t.Fatalf("trial %d: coalition cost grew", trial)
		}
		// Grid interaction must not exceed the baseline (Fig 6d).
		if pem.GridInteraction() > base.GridInteraction()+1e-9 {
			t.Fatalf("trial %d: grid interaction grew", trial)
		}
	}
}

// clearingViolations lists every market rule c breaks: payments at the
// clearing price; the price inside its corridor (the floor in an extreme
// market, retail with no sellers); nothing traded in a one-sided window;
// the regime matching supply against demand; Σ e_ij equal to the short
// side — full supply in general markets, full demand in extreme ones — and
// Section III-D's pro-rata shares on both sides.
func clearingViolations(c *Clearing, params Params) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	traded := 0.0
	bySeller := map[string]float64{}
	byBuyer := map[string]float64{}
	for _, tr := range c.Trades {
		traded += tr.Energy
		bySeller[tr.Seller] += tr.Energy
		byBuyer[tr.Buyer] += tr.Energy
		if !almostEqual(tr.Payment, tr.Energy*c.Price, 1e-9) {
			fail("%s->%s paid %v for %v kWh at %v", tr.Seller, tr.Buyer, tr.Payment, tr.Energy, c.Price)
		}
	}
	switch {
	case len(c.SellerIDs) == 0:
		if c.Price != params.GridRetailPrice {
			fail("seller-less window priced %v, want retail", c.Price)
		}
	case c.Kind == ExtremeMarket:
		if c.Price != params.PriceFloor {
			fail("extreme market priced %v, want floor", c.Price)
		}
	case c.Price < params.PriceFloor || c.Price > params.PriceCeil:
		fail("general-market price %v outside [%v, %v]", c.Price, params.PriceFloor, params.PriceCeil)
	}
	if len(c.SellerIDs) == 0 || len(c.BuyerIDs) == 0 {
		if traded != 0 {
			fail("one-sided window traded %v kWh", traded)
		}
		return bad
	}
	if (c.Kind == ExtremeMarket) != (c.Supply >= c.Demand) {
		fail("%v market with supply %v, demand %v", c.Kind, c.Supply, c.Demand)
	}
	if want := math.Min(c.Supply, c.Demand); !almostEqual(traded, want, 1e-6) {
		fail("traded %v, short side %v", traded, want)
	}
	// Pro-rata: the short side trades its whole position; the long side
	// trades in proportion to its own.
	for _, o := range c.Outcomes {
		var got, want float64
		switch {
		case o.Role == RoleSeller && c.Kind == GeneralMarket:
			got, want = bySeller[o.ID], o.Net
		case o.Role == RoleSeller:
			got, want = bySeller[o.ID], c.Demand*o.Net/c.Supply
		case o.Role == RoleBuyer && c.Kind == GeneralMarket:
			got, want = byBuyer[o.ID], c.Supply*-o.Net/c.Demand
		case o.Role == RoleBuyer:
			got, want = byBuyer[o.ID], -o.Net
		}
		if !almostEqual(got, want, 1e-9) {
			fail("%s %s traded %v, pro-rata share %v", o.Role, o.ID, got, want)
		}
	}
	return bad
}

// TestAllocationConservationProperty holds every sampled clearing to the
// market rules of clearingViolations.
func TestAllocationConservationProperty(t *testing.T) {
	params := DefaultParams()
	rng := mrand.New(mrand.NewSource(4))
	if err := quick.Check(func(seed int64) bool {
		r := mrand.New(mrand.NewSource(seed))
		n := 2 + r.Intn(8)
		agents := make([]Agent, n)
		inputs := make([]WindowInput, n)
		for i := range agents {
			agents[i] = Agent{ID: "h" + string(rune('a'+i)), K: 70 + r.Float64()*50, Epsilon: 0.6 + r.Float64()*0.3}
			inputs[i] = WindowInput{Generation: r.Float64(), Load: r.Float64()}
		}
		c, err := Clear(agents, inputs, params)
		if err != nil {
			return false
		}
		bad := clearingViolations(c, params)
		for _, v := range bad {
			t.Errorf("seed %d: %s", seed, v)
		}
		return len(bad) == 0
	}, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestClearingRulesCatchTampering shows each rule of clearingViolations
// rejecting the corruption it exists for, on a general market of two
// sellers (0.43 kWh) against three buyers (0.73 kWh).
func TestClearingRulesCatchTampering(t *testing.T) {
	agents := []Agent{
		{ID: "s1", K: 85, Epsilon: 0.9},
		{ID: "s2", K: 75, Epsilon: 0.85},
		{ID: "b1", K: 80, Epsilon: 0.9},
		{ID: "b2", K: 90, Epsilon: 0.8},
		{ID: "b3", K: 70, Epsilon: 0.85},
	}
	inputs := []WindowInput{
		{Generation: 0.35, Load: 0.10}, // +0.25
		{Generation: 0.30, Load: 0.12}, // +0.18
		{Generation: 0.00, Load: 0.30}, // −0.30
		{Generation: 0.02, Load: 0.25}, // −0.23
		{Generation: 0.00, Load: 0.20}, // −0.20
	}
	for name, tamper := range map[string]func(c *Clearing){
		"Clean":          func(*Clearing) {},
		"PriceOutOfBand": func(c *Clearing) { c.Price = 150 },
		"SkimmedPayment": func(c *Clearing) { c.Trades[0].Payment *= 0.5 },
		"MissingTrade":   func(c *Clearing) { c.Trades = c.Trades[1:] },
		"WrongRegime":    func(c *Clearing) { c.Kind = ExtremeMarket }, // supply < demand
		"SkewedShares": func(c *Clearing) { // b1 gains what b2 loses, paid at the price
			for buyer, kWh := range map[string]float64{"b1": 0.05, "b2": -0.05} {
				i := slices.IndexFunc(c.Trades, func(tr Trade) bool { return tr.Buyer == buyer })
				c.Trades[i].Energy += kWh
				c.Trades[i].Payment = c.Trades[i].Energy * c.Price
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			params := DefaultParams()
			c, err := Clear(agents, inputs, params)
			if err != nil {
				t.Fatal(err)
			}
			tamper(c)
			if bad := clearingViolations(c, params); (len(bad) == 0) != (name == "Clean") {
				t.Errorf("violations: %v", bad)
			}
		})
	}
}

func TestSellerUtilityAgainstPaperShape(t *testing.T) {
	// Fig 6b: with-PEM utility ≥ without-PEM utility for any price in
	// [pl, ph] vs selling to grid at pbtg, given the same physical data.
	k, eps := 40.0, 0.9
	gen, load, batt := 0.3, 0.05, 0.0
	params := DefaultParams()
	withPEM := SellerUtility(k, eps, load, gen, batt, 100)
	withoutPEM := SellerUtility(k, eps, load, gen, batt, params.GridSellPrice)
	if withPEM <= withoutPEM {
		t.Errorf("PEM utility %v not above baseline %v", withPEM, withoutPEM)
	}
	// Higher k yields higher utility at fixed price (log term scales).
	u20 := SellerUtility(20, eps, load, gen, batt, 100)
	u40 := SellerUtility(40, eps, load, gen, batt, 100)
	if u40 <= u20 {
		t.Errorf("k=40 utility %v not above k=20 %v", u40, u20)
	}
}

func TestCoalitionCostFormula(t *testing.T) {
	// Eq. 7 must agree with the summed per-buyer costs in a general
	// market clearing.
	agents, inputs := fourAgents()
	params := DefaultParams()
	c, err := Clear(agents, inputs, params)
	if err != nil {
		t.Fatal(err)
	}
	want := CoalitionCost(c.Price, c.Supply, c.Demand, params.GridRetailPrice)
	if !almostEqual(c.TotalBuyerCost(), want, 1e-6) {
		t.Errorf("coalition cost %v, want Eq.7 %v", c.TotalBuyerCost(), want)
	}
}

func TestRoleAndKindStrings(t *testing.T) {
	if RoleSeller.String() != "seller" || RoleBuyer.String() != "buyer" || RoleOff.String() != "off" {
		t.Error("role strings wrong")
	}
	if GeneralMarket.String() != "general" || ExtremeMarket.String() != "extreme" {
		t.Error("kind strings wrong")
	}
	if Role(99).String() == "" || Kind(99).String() == "" {
		t.Error("unknown values must render")
	}
}

func BenchmarkClear200Agents(b *testing.B) {
	rng := mrand.New(mrand.NewSource(5))
	n := 200
	agents := make([]Agent, n)
	inputs := make([]WindowInput, n)
	for i := range agents {
		agents[i] = Agent{ID: string(rune('a'+i%26)) + string(rune('0'+i/26)), K: 70 + rng.Float64()*50, Epsilon: 0.8}
		inputs[i] = WindowInput{Generation: rng.Float64() * 0.1, Load: rng.Float64() * 0.1}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Clear(agents, inputs, DefaultParams()); err != nil {
			b.Fatal(err)
		}
	}
}
