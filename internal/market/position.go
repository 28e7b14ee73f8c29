package market

import (
	"errors"
	"fmt"
	"sort"
)

// Cross-epoch settlement: the live grid (internal/grid/epoch.go) runs many
// trading days over a churning fleet, and an agent's financial history must
// survive re-partitioning — it may trade in coalition c02 one epoch and
// c00 the next, or leave the fleet mid-simulation. This file is the
// carry-over layer: a PositionBook accumulates every agent's cumulative
// energy and payment flows across epochs, keyed by agent ID (stable across
// partitions), and freezes the position when the agent departs or fails.
// The book only ever sees what the settlement harness already observes —
// oracle clearings and grid tariffs — never protocol-private data.

// AgentFlows is one agent's energy and payment flows over some horizon
// (typically one epoch): its PEM-internal trades plus its residual grid
// legs valued at the tariff. All fields are non-negative accumulations;
// the buy/sell and paid/earned pairs are kept separate so fleet-level
// conservation (Σsell = Σbuy, Σearned = Σpaid) stays checkable after any
// aggregation.
type AgentFlows struct {
	// BuyKWh and SellKWh are the agent's PEM-traded energy.
	BuyKWh, SellKWh float64
	// PaidCents and EarnedCents are its PEM-internal payments.
	PaidCents, EarnedCents float64
	// GridImportKWh and GridExportKWh are its residual grid legs.
	GridImportKWh, GridExportKWh float64
	// GridCostCents and GridRevenueCents value the grid legs at the tariff.
	GridCostCents, GridRevenueCents float64
}

// add folds another accumulation into f.
func (f *AgentFlows) add(o AgentFlows) {
	f.BuyKWh += o.BuyKWh
	f.SellKWh += o.SellKWh
	f.PaidCents += o.PaidCents
	f.EarnedCents += o.EarnedCents
	f.GridImportKWh += o.GridImportKWh
	f.GridExportKWh += o.GridExportKWh
	f.GridCostCents += o.GridCostCents
	f.GridRevenueCents += o.GridRevenueCents
}

// FlowAccumulator folds a window sequence's clearings (a coalition's epoch)
// into per-agent flows: each trade credits the seller and debits the buyer,
// and each agent's residual grid leg is valued at the tariff. It accumulates
// by roster position — nothing allocated or hashed per grid-only window —
// and yields the ID-keyed map a PositionBook applies once, at the end.
type FlowAccumulator struct {
	agents  []Agent
	flows   []AgentFlows
	touched []bool         // a trade or a positive grid leg reached the agent
	index   map[string]int // ID → roster position, for trades
}

// NewFlowAccumulator accumulates clearings computed over exactly this roster.
func NewFlowAccumulator(agents []Agent) *FlowAccumulator {
	n := len(agents)
	a := &FlowAccumulator{agents: agents, flows: make([]AgentFlows, n), touched: make([]bool, n), index: make(map[string]int, n)}
	for i, ag := range agents {
		a.index[ag.ID] = i
	}
	return a
}

// Add folds one window's clearing of the accumulator's roster.
func (a *FlowAccumulator) Add(c *Clearing, params Params) {
	for _, tr := range c.Trades {
		s, b := a.index[tr.Seller], a.index[tr.Buyer]
		a.flows[s].SellKWh += tr.Energy
		a.flows[s].EarnedCents += tr.Payment
		a.flows[b].BuyKWh += tr.Energy
		a.flows[b].PaidCents += tr.Payment
		a.touched[s], a.touched[b] = true, true
	}
	for i, o := range c.Outcomes {
		if o.GridEnergy <= 0 {
			continue
		}
		f := &a.flows[i]
		switch o.Role {
		case RoleBuyer:
			f.GridImportKWh += o.GridEnergy
			f.GridCostCents += o.GridEnergy * params.GridRetailPrice
		case RoleSeller:
			f.GridExportKWh += o.GridEnergy
			f.GridRevenueCents += o.GridEnergy * params.GridSellPrice
		}
		a.touched[i] = true
	}
}

// Flows returns the accumulated flows keyed by agent ID. An agent no trade
// or grid leg touched is absent, not present with zero flows.
func (a *FlowAccumulator) Flows() map[string]AgentFlows {
	out := make(map[string]AgentFlows, len(a.agents))
	for i, ag := range a.agents {
		if a.touched[i] {
			out[ag.ID] = a.flows[i]
		}
	}
	return out
}

// AgentPosition is one agent's cumulative position across a live-grid
// simulation: its lifetime flows plus its membership interval. Positions
// survive re-partitioning because they are keyed by agent ID, not by
// coalition.
type AgentPosition struct {
	// ID is the agent.
	ID string
	// Flows is the cumulative energy/payment accumulation since JoinEpoch.
	Flows AgentFlows
	// JoinEpoch is the epoch the agent first traded in (0 for the base
	// fleet).
	JoinEpoch int
	// ExitEpoch is the last epoch the agent traded in, or -1 while the
	// agent is active. Once set, the position is frozen: applying further
	// flows to it is an error.
	ExitEpoch int
	// ExitKind records how the agent left ("depart" or "fail"; empty while
	// active). Both freeze the book identically — the grid operator closes
	// the account either way — but harnesses report them separately.
	ExitKind string
}

// Active reports whether the agent is still on the fleet roster.
func (p AgentPosition) Active() bool { return p.ExitEpoch < 0 }

// PositionBook tracks per-agent cumulative positions across the epochs of
// a live grid. It is not safe for concurrent use; the epoch supervisor
// applies coalition flows sequentially between epochs, which also keeps
// the floating-point accumulation order — and therefore the book —
// deterministic.
type PositionBook struct {
	params Params
	byID   map[string]*AgentPosition
}

// NewPositionBook creates an empty book settling exits at the given tariff.
func NewPositionBook(params Params) (*PositionBook, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &PositionBook{params: params, byID: make(map[string]*AgentPosition)}, nil
}

// Join opens a position for an agent entering at the given epoch. Joining
// an ID that already has an open or frozen position is an error — IDs are
// unique for the lifetime of a simulation.
func (b *PositionBook) Join(id string, epoch int) error {
	if id == "" {
		return errors.New("market: position for empty agent ID")
	}
	if _, ok := b.byID[id]; ok {
		return fmt.Errorf("market: agent %q already has a position", id)
	}
	b.byID[id] = &AgentPosition{ID: id, JoinEpoch: epoch, ExitEpoch: -1}
	return nil
}

// Apply folds one epoch's flows into the agents' open positions. Flows for
// an unknown or frozen agent are an error: a departed agent must never
// accrue post-exit activity.
func (b *PositionBook) Apply(epoch int, flows map[string]AgentFlows) error {
	ids := make([]string, 0, len(flows))
	for id := range flows {
		ids = append(ids, id)
	}
	sort.Strings(ids) // deterministic accumulation order
	for _, id := range ids {
		p, ok := b.byID[id]
		if !ok {
			return fmt.Errorf("market: flows for unknown agent %q", id)
		}
		if !p.Active() {
			return fmt.Errorf("market: flows for agent %q frozen at epoch %d", id, p.ExitEpoch)
		}
		f := flows[id]
		for _, v := range []float64{f.BuyKWh, f.SellKWh, f.PaidCents, f.EarnedCents,
			f.GridImportKWh, f.GridExportKWh, f.GridCostCents, f.GridRevenueCents} {
			if v < 0 || !finite(v) {
				return fmt.Errorf("market: agent %q epoch %d: flow not a non-negative quantity: %+v", id, epoch, f)
			}
		}
		p.Flows.add(f)
	}
	return nil
}

// Exit freezes an agent's position at its last traded epoch, settling any
// residual energy handed over by the supervisor at the grid tariff:
// residualImportKWh is drawn at retail, residualExportKWh fed in at the
// grid's buy price. The residuals are normally zero — each window's grid
// legs are already valued by FlowAccumulator — and become non-zero only
// when the agent's final energy could not clear through a market at all
// (e.g. it was stranded in a coalition too small to run). kind is "depart"
// (planned) or "fail" (crash); the accounting is identical, the label is
// reporting. A frozen position rejects all further Apply and Exit calls.
func (b *PositionBook) Exit(id string, lastEpoch int, kind string, residualImportKWh, residualExportKWh float64) error {
	p, ok := b.byID[id]
	if !ok {
		return fmt.Errorf("market: exit of unknown agent %q", id)
	}
	if !p.Active() {
		return fmt.Errorf("market: agent %q already exited at epoch %d", id, p.ExitEpoch)
	}
	if kind != exitDepart && kind != exitFail {
		return fmt.Errorf("market: unknown exit kind %q", kind)
	}
	if residualImportKWh < 0 || residualExportKWh < 0 || !finite(residualImportKWh) || !finite(residualExportKWh) {
		return fmt.Errorf("market: agent %q exit residual not a non-negative quantity: import=%v export=%v",
			id, residualImportKWh, residualExportKWh)
	}
	p.Flows.GridImportKWh += residualImportKWh
	p.Flows.GridCostCents += residualImportKWh * b.params.GridRetailPrice
	p.Flows.GridExportKWh += residualExportKWh
	p.Flows.GridRevenueCents += residualExportKWh * b.params.GridSellPrice
	p.ExitEpoch = lastEpoch
	p.ExitKind = kind
	return nil
}

// The exit kinds accepted by Exit. They mirror dataset.ChurnDepart and
// dataset.ChurnFail without importing the dataset package (which imports
// this one).
const (
	exitDepart = "depart"
	exitFail   = "fail"
)

// Snapshot returns the book's full per-agent state, sorted by agent ID —
// the durable representation a store checkpoints at epoch boundaries. It
// is Positions under a name that pairs with Restore; the copies share no
// state with the book.
func (b *PositionBook) Snapshot() []AgentPosition { return b.Positions() }

// Restore replaces the book's state with a snapshot, bit-exactly: every
// float lands unchanged, so a resumed simulation accumulates onto exactly
// the state the checkpointed one held. The tariff params are not part of
// the snapshot — the caller reconstructs the book from its configuration
// and restores positions into it. Duplicate or empty IDs are an error and
// leave the book unchanged.
func (b *PositionBook) Restore(positions []AgentPosition) error {
	fresh := make(map[string]*AgentPosition, len(positions))
	for _, p := range positions {
		if p.ID == "" {
			return errors.New("market: restore of position with empty agent ID")
		}
		if _, dup := fresh[p.ID]; dup {
			return fmt.Errorf("market: restore with duplicate position for agent %q", p.ID)
		}
		cp := p
		fresh[p.ID] = &cp
	}
	b.byID = fresh
	return nil
}

// Position returns one agent's position.
func (b *PositionBook) Position(id string) (AgentPosition, bool) {
	p, ok := b.byID[id]
	if !ok {
		return AgentPosition{}, false
	}
	return *p, true
}

// Positions returns every agent's position, frozen and active alike,
// sorted by agent ID.
func (b *PositionBook) Positions() []AgentPosition {
	out := make([]AgentPosition, 0, len(b.byID))
	for _, p := range b.byID {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Conservation returns the book-wide PEM imbalances: traded energy
// (Σsell − Σbuy, kWh) and internal payments (Σearned − Σpaid, cents).
// Both are zero up to floating-point noise for any book built from oracle
// clearings, under every churn mix — energy sold inside the PEM is energy
// bought inside it, and every cent a buyer pays lands with a seller. Grid
// legs are flows against the external grid account and are excluded by
// construction.
func (b *PositionBook) Conservation() (energyKWh, paymentCents float64) {
	// Summed in agent-ID order, not map order: float addition is not
	// associative, and the crash-recovery oracle compares a resumed run's
	// imbalances to the reference's bit for bit.
	for _, p := range b.Positions() {
		energyKWh += p.Flows.SellKWh - p.Flows.BuyKWh
		paymentCents += p.Flows.EarnedCents - p.Flows.PaidCents
	}
	return energyKWh, paymentCents
}
