package pem

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/pem-go/pem/internal/core"
	"github.com/pem-go/pem/internal/market"
)

// DaySeries holds per-window series for a full trading day — the data
// behind Fig. 4 (coalition sizes), Fig. 6(a) (price), Fig. 6(c) (buyer
// coalition cost) and Fig. 6(d) (grid interaction).
type DaySeries struct {
	// Windows is the number of trading windows in the day.
	Windows int
	// Kind per window.
	Kind []Kind
	// Price is the effective PEM trading price (cents/kWh); equals the
	// grid retail price in seller-less windows.
	Price []float64
	// PHat is the unclamped Stackelberg price (0 where pricing didn't run).
	PHat []float64
	// SellerCount and BuyerCount are the coalition sizes.
	SellerCount, BuyerCount []int
	// BuyerCostPEM and BuyerCostBase are the buyer coalition's total cost
	// with PEM and with grid-only trading (cents).
	BuyerCostPEM, BuyerCostBase []float64
	// GridPEM and GridBase are the total energy exchanged with the main
	// grid (kWh).
	GridPEM, GridBase []float64
}

// errNilTrace refuses a nil *Trace where a day needs one.
var errNilTrace = errors.New("pem: nil trace")

// SimulateDay runs the plaintext market over every window of the trace.
// It is the fast path used to regenerate the trading-performance figures;
// the cryptographic engine produces identical outcomes (asserted by the
// integration tests) but pays the full protocol cost per window.
func SimulateDay(trace *Trace, params Params) (*DaySeries, error) {
	if trace == nil {
		return nil, errNilTrace
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	agents := trace.Agents()
	ds := &DaySeries{
		Windows:       trace.Windows,
		Kind:          make([]Kind, trace.Windows),
		Price:         make([]float64, trace.Windows),
		PHat:          make([]float64, trace.Windows),
		SellerCount:   make([]int, trace.Windows),
		BuyerCount:    make([]int, trace.Windows),
		BuyerCostPEM:  make([]float64, trace.Windows),
		BuyerCostBase: make([]float64, trace.Windows),
		GridPEM:       make([]float64, trace.Windows),
		GridBase:      make([]float64, trace.Windows),
	}
	for w := 0; w < trace.Windows; w++ {
		inputs, err := trace.WindowInputs(w)
		if err != nil {
			return nil, err
		}
		clr, err := market.Clear(agents, inputs, params)
		if err != nil {
			return nil, fmt.Errorf("window %d: %w", w, err)
		}
		base, err := market.BaselineClear(agents, inputs, params)
		if err != nil {
			return nil, fmt.Errorf("window %d baseline: %w", w, err)
		}
		ds.Kind[w] = clr.Kind
		ds.Price[w] = clr.Price
		ds.PHat[w] = clr.PHat
		ds.SellerCount[w] = len(clr.SellerIDs)
		ds.BuyerCount[w] = len(clr.BuyerIDs)
		ds.BuyerCostPEM[w] = clr.TotalBuyerCost()
		ds.BuyerCostBase[w] = base.TotalBuyerCost()
		ds.GridPEM[w] = clr.GridInteraction()
		ds.GridBase[w] = base.GridInteraction()
	}
	return ds, nil
}

// SellerUtilitySeries computes the Fig. 6(b) series for one tracked home:
// its per-window utility with the PEM trading price versus the grid-only
// baseline, with the preference parameter overridden to k (the paper fixes
// k = 20 and 40). Windows where the home is not a seller contribute zero.
func SellerUtilitySeries(trace *Trace, homeIndex int, k float64, params Params) (withPEM, withoutPEM []float64, err error) {
	if trace == nil {
		return nil, nil, errNilTrace
	}
	if homeIndex < 0 || homeIndex >= len(trace.Homes) {
		return nil, nil, fmt.Errorf("pem: home index %d out of range", homeIndex)
	}
	if !(k > 0) || math.IsInf(k, 1) {
		return nil, nil, fmt.Errorf("pem: preference k must be positive and finite, got %v", k)
	}
	ds, err := SimulateDay(trace, params)
	if err != nil {
		return nil, nil, err
	}
	home := trace.Homes[homeIndex]
	withPEM = make([]float64, trace.Windows)
	withoutPEM = make([]float64, trace.Windows)
	for w := 0; w < trace.Windows; w++ {
		gen := trace.Gen[homeIndex][w]
		load := trace.Load[homeIndex][w]
		batt := trace.Battery[homeIndex][w]
		if market.ClassifyRole(gen-load-batt) != market.RoleSeller {
			continue
		}
		withPEM[w] = market.SellerUtility(k, home.Epsilon, load, gen, batt, ds.Price[w])
		withoutPEM[w] = market.SellerUtility(k, home.Epsilon, load, gen, batt, params.GridSellPrice)
	}
	return withPEM, withoutPEM, nil
}

// DayResult aggregates a full day executed through the private protocols.
type DayResult struct {
	// Results holds one outcome per window, in window order.
	Results []*WindowResult
	// TotalBytes is the day's protocol traffic: the sum of its windows'
	// BytesOnWire, so windows run outside the day are never counted.
	TotalBytes int64
}

// RunDay executes every window of the trace through the cryptographic
// engine. This is the paper's actual deployment path (Fig. 5 and Table I
// measure it); for trading-performance figures prefer SimulateDay.
//
// The day is pipelined: two windows in flight, each window still an
// independent protocol instance. Outcomes and ledger order are identical
// to running the windows one at a time with RunWindow.
func (m *Market) RunDay(ctx context.Context, trace *Trace) (*DayResult, error) {
	return m.StreamDay(ctx, trace, nil)
}

// StreamDay is the streaming form of RunDay: sink (when non-nil) receives
// every window's result in strict window order as soon as that window —
// and every window before it — has completed, while later windows are
// still executing. A sink error aborts the day.
func (m *Market) StreamDay(ctx context.Context, trace *Trace, sink func(*WindowResult) error) (*DayResult, error) {
	if trace == nil {
		return nil, errNilTrace
	}
	if len(trace.Homes) != len(m.agents) {
		return nil, fmt.Errorf("pem: trace has %d homes, market has %d agents", len(trace.Homes), len(m.agents))
	}
	jobs := make([]core.WindowJob, trace.Windows)
	for w := 0; w < trace.Windows; w++ {
		inputs, err := trace.WindowInputs(w)
		if err != nil {
			return nil, err
		}
		jobs[w] = core.WindowJob{Window: w, Inputs: inputs}
	}
	results, err := m.streamWindows(ctx, jobs, sink)
	if err != nil {
		return nil, fmt.Errorf("pem: %w", err)
	}
	day := &DayResult{Results: results}
	for _, res := range results {
		day.TotalBytes += res.BytesOnWire
	}
	return day, nil
}
