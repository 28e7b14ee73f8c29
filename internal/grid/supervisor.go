package grid

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/pem-go/pem/internal/core"
	"github.com/pem-go/pem/internal/dataset"
	"github.com/pem-go/pem/internal/ledger"
	"github.com/pem-go/pem/internal/market"
	"github.com/pem-go/pem/internal/paillier"
	"github.com/pem-go/pem/internal/store"
	"github.com/pem-go/pem/internal/transport"
)

// Config configures a grid run.
type Config struct {
	// Engine is the per-coalition protocol configuration; each coalition's
	// engine runs under its own transport scope (core.Resources.Scope), the
	// coalition's name. A non-nil Seed makes every coalition's outcome
	// bit-identical regardless of coalition concurrency, partition held
	// fixed.
	Engine core.Config
	// MaxConcurrent is the grid day's one width: how many coalition-days
	// run concurrently (default: all of them), each running its windows one
	// after another. Crypto parallelism stays bounded by the one shared
	// worker pool.
	MaxConcurrent int
	// Tiers makes the settlement hierarchy recursive: Tiers[0] coalitions
	// roll up into a district, Tiers[1] districts into a region, and so on
	// (consecutive partition indices group together; the last level's nodes
	// attach to the grid boundary). Each tier nets its children's surplus
	// against their deficit before the remainder moves up, so only the
	// unmatched fleet position touches the grid tariff — see
	// market.SettleTiers. Empty means flat: every coalition settles
	// directly at the tariff, bit-identical to the pre-hierarchy grid.
	Tiers []int
	// Store, when set, persists each coalition's outcome as it streams —
	// its ledger blocks, key-material fingerprints and settlement aggregate
	// (folded coalitions persist their grid-tariff aggregate too) — in
	// delivery order, before the streaming payload release. A store error
	// aborts the run like a sink error: durability failures must not pass
	// silently. Nil (the default) keeps runs purely in-memory.
	Store store.Store
}

// MinCoalition is the roster floor for running a private market: below
// three agents the paper's protocols degenerate (the ring aggregations and
// pricing game need counterparties beyond the special parties), so a
// smaller coalition — routine once churn shrinks rosters — is folded: its
// agents trade with the main grid at the tariff, an outcome like any other
// (CoalitionRun.Folded, Err nil).
const MinCoalition = 3

// validate checks the configuration shared by Run and RunLive: the
// supervisor's budgets and the engine configuration every coalition
// provisions under.
func (c Config) validate() error {
	if err := c.Engine.Validate(); err != nil {
		return err
	}
	if c.MaxConcurrent < 0 {
		return fmt.Errorf("grid: negative MaxConcurrent %d", c.MaxConcurrent)
	}
	for i, f := range c.Tiers {
		if f < 1 {
			return fmt.Errorf("grid: Tiers[%d] fanout %d must be ≥ 1", i, f)
		}
	}
	return nil
}

// params resolves the market parameters used for oracle accounting.
func (c Config) params() market.Params {
	if c.Engine.Params == (market.Params{}) {
		return market.DefaultParams()
	}
	return c.Engine.Params
}

// CoalitionRun is the outcome of one coalition's trading day.
type CoalitionRun struct {
	// Name is the coalition's supervisor-assigned identifier ("c00", … for
	// one-shot grids, "e01-c00", … for live-grid epochs), which is also its
	// transport tag namespace.
	Name string
	// Members are the coalition's home indices into the fleet trace.
	Members []int
	// IDs are the members' agent IDs.
	IDs []string
	// Results holds the per-window protocol outcomes (nil on failure and
	// for folded coalitions; released after delivery when Run has a sink).
	Results []*core.WindowResult
	// Windows counts the coalition's completed trading windows. Unlike
	// len(Results) it survives the streaming payload release.
	Windows int
	// Residual is the coalition's day-aggregate unmatched energy, computed
	// from the plaintext oracle clearing exactly like the trading-
	// performance figures (the private protocols reveal neither side). For
	// a folded coalition it is the members' full grid-only position.
	Residual market.CoalitionResidual
	// Flows is the members' per-agent energy and payment accounting over
	// the day, from the same oracle clearings as Residual (grid-only
	// baseline clearings for a folded coalition). The live grid folds it
	// into cross-epoch positions; one-shot callers may ignore it.
	Flows map[string]market.AgentFlows
	// Bytes is the coalition's protocol traffic on the shared bus: the sum
	// of its windows' BytesOnWire.
	Bytes int64
	// Msgs is the coalition's protocol message count on the shared bus: the
	// sum of its windows' Messages.
	Msgs int64
	// VirtualLatency is the coalition-day's virtual duration on the
	// emulated network (Engine.Network): the sum of its windows'
	// critical-path latencies, i.e. the time the day would take played
	// back-to-back over the emulated links. Zero on unemulated runs.
	VirtualLatency time.Duration
	// Rounds is the deepest protocol round count any of the coalition's
	// windows reached on the emulated network. Zero on unemulated runs.
	Rounds int
	// Ledger is the coalition's tamper-evident trade log: every completed
	// window's trades and clearing price, hash-chained in window order (nil
	// for folded and failed coalitions). The settlement path commits it
	// before residuals are cleared, so a coalition-day's transactions can
	// be audited per (epoch, coalition) after the fact.
	Ledger *ledger.Ledger
	// ChainHead is the ledger's final chain hash, kept after the streaming
	// payload release so completed streams remain audit-comparable against
	// batch runs without retaining the ledger itself (empty for folded and
	// failed coalitions).
	ChainHead string
	// Keys are the coalition's provisioned key-material fingerprints
	// (public-modulus digests, sorted by party), captured at engine
	// provisioning so the durability layer can record per-(epoch,
	// coalition) re-keying. Nil for folded and failed coalitions; released
	// with the rest of the heavy payload on streaming runs.
	Keys []core.KeyFingerprint
	// Rekey is the time spent provisioning the coalition's engine — a key
	// pair generated for every member the key ring does not hold yet (all of
	// them on a one-shot grid, the joiners in a live-grid epoch) plus
	// transport registration. The live grid pays it once per (epoch,
	// coalition); reporting it separately keeps re-keying cost out of
	// steady-state throughput.
	Rekey time.Duration
	// Duration is the coalition-day wall-clock time (engine provisioning
	// included).
	Duration time.Duration
	// Folded marks a coalition below the three-agent floor (MinCoalition):
	// its members traded at the grid tariff instead of in a private market.
	// That is an outcome, not a failure — Err stays nil, and the folded
	// residual and flows are delivered, persisted and settled like any
	// other. Folded and Err are independent.
	Folded bool
	// Err is the coalition's failure, nil for a coalition that traded or
	// folded. ErrCoalitionSkipped marks a coalition never launched because
	// the run was already stopping (the message names the cause).
	// Delivery, persistence and settlement cover exactly the coalitions
	// with Err nil.
	Err error
}

// ErrCoalitionSkipped marks coalitions that were never launched because the
// supervisor had stopped admitting work — after an earlier coalition failed,
// on context cancellation, or after a sink or store error aborted delivery;
// the wrapped message names which.
var ErrCoalitionSkipped = errors.New("grid: coalition skipped")

// releasePayload drops the coalition's heavy per-window payload — results,
// flows, ledger, roster — keeping only the O(1) aggregates a settlement
// fold needs. A run with a sink calls it once the sink has seen the
// coalition, which is what bounds a 10^5-coalition day to the coalitions in
// flight.
func (cr *CoalitionRun) releasePayload() {
	cr.Results = nil
	cr.Flows = nil
	cr.Ledger = nil
	cr.Members = nil
	cr.IDs = nil
	cr.Keys = nil
}

// persistCoalition writes one settled coalition's durable records: every
// ledger block in chain order (genesis included — appending it resets the
// scope on a resumed replay), the key-material fingerprints, and the O(1)
// settlement aggregate. Called from the delivery path, so records land in
// partition order and strictly before the sink's payload release. A nil
// store is a no-op.
func persistCoalition(st store.Store, cr *CoalitionRun) error {
	if st == nil {
		return nil
	}
	if cr.Ledger != nil {
		for i := 0; i < cr.Ledger.Len(); i++ {
			blk, err := cr.Ledger.Block(i)
			if err != nil {
				return err
			}
			if err := st.AppendBlock(cr.Name, blk); err != nil {
				return fmt.Errorf("store: coalition %s block %d: %w", cr.Name, i, err)
			}
		}
	}
	for _, fp := range cr.Keys {
		rec := store.KeyRecord{Scope: cr.Name, Party: fp.Party, Fingerprint: append([]byte(nil), fp.Digest[:]...)}
		if err := st.PutKeyMaterial(rec); err != nil {
			return fmt.Errorf("store: coalition %s key material: %w", cr.Name, err)
		}
	}
	agg := store.Aggregate{
		Scope:     cr.Name,
		Windows:   cr.Windows,
		ImportKWh: cr.Residual.ImportKWh,
		ExportKWh: cr.Residual.ExportKWh,
		ChainHead: cr.ChainHead,
		Folded:    cr.Folded,
	}
	if err := st.PutAggregate(agg); err != nil {
		return fmt.Errorf("store: coalition %s aggregate: %w", cr.Name, err)
	}
	return nil
}

// Result is the outcome of a full grid run.
type Result struct {
	// Coalitions holds one entry per partition element, in partition order.
	// A run with a sink leaves it nil: per-coalition outcomes are delivered
	// to the sink instead, and only the fold below is retained.
	Coalitions []CoalitionRun
	// Settlement clears the traded and folded coalitions' residuals against
	// the grid tariff (nil when no coalition produced one). With
	// Config.Tiers it is the hierarchy's grid boundary — what survives
	// every tier of netting — and equals Tiers.Grid.
	Settlement *market.GridSettlement
	// Tiers is the recursive settlement under Config.Tiers: one netting
	// outcome per district/region tier plus the grid boundary. Nil on flat
	// runs.
	Tiers *market.TieredSettlement
	// Windows counts completed trading windows across all coalitions.
	Windows int
	// Duration is the whole run's wall-clock time.
	Duration time.Duration
	// TotalBytes is the fleet's protocol traffic.
	TotalBytes int64
	// TotalMessages is the fleet's protocol message count.
	TotalMessages int64
	// VirtualLatency is the grid-day's virtual duration on the emulated
	// network: the slowest coalition's day, since coalition-days run
	// concurrently. Zero on unemulated runs.
	VirtualLatency time.Duration
}

// Run executes one trading day for every coalition of the partition over
// shared infrastructure of its own. With a nil sink the returned Result
// keeps every coalition's full outcome. With a sink, each coalition's full
// outcome is delivered in partition order as soon as it — and every
// coalition before it — has completed, and its heavy payload is released
// once the sink returns; the Result then carries the fold (settlement,
// tiers, traffic) with Coalitions nil, so memory stays bounded by the
// coalitions in flight. The *CoalitionRun passed to sink is valid only
// during the call; a sink error cancels the in-flight coalitions and aborts
// the run. A seeded run is bit-identical with or without a sink, at any sink
// consumption speed.
//
// Failure semantics are core.RunOrdered's, as for windows: a failing
// coalition cancels only itself; the supervisor then stops launching new
// coalitions, drains the ones in flight, and reports the earliest failed
// coalition's error. The returned Result is valid (with per-coalition Err
// set) even when err is non-nil; the sink never sees a failed or skipped
// coalition, nor anything after the first failure.
func Run(ctx context.Context, cfg Config, tr *dataset.Trace, parts [][]int, sink func(*CoalitionRun) error) (*Result, error) {
	if len(parts) == 0 {
		return nil, errors.New("grid: empty partition")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// One bus, one bounded crypto pool. No key ring: rosters are disjoint
	// and the day is the whole run, so each engine's own is the same thing.
	res, err := runDay(ctx, cfg, core.Resources{Bus: transport.NewBus(nil), Workers: paillier.NewWorkers(0)}, tr, parts, "", sink)
	if err != nil {
		err = fmt.Errorf("grid: %w", err)
	}
	return res, err
}

// runDay is the one coalition-day supervisor, shared by the one-shot grid
// (fresh infrastructure, scope "") and every live-grid epoch (the
// simulation's infrastructure, scope "eNN-", no sink): name the partition's
// coalitions scope+"cNN", run them provision-then-trade under the
// MaxConcurrent budget, persist each in partition order and hand it to the
// sink (if any), then fold the day's traffic and settle its residuals. The
// returned Result is valid (with per-coalition Err set) even when err is
// non-nil; err is the launcher's (see launchCoalitions) or, failing that,
// the settlement's.
func runDay(ctx context.Context, cfg Config, infra core.Resources, tr *dataset.Trace, parts [][]int, scope string, sink func(*CoalitionRun) error) (*Result, error) {
	start := time.Now()
	runs := make([]CoalitionRun, len(parts))
	for i, members := range parts {
		runs[i] = CoalitionRun{
			Name:    fmt.Sprintf("%sc%02d", scope, i),
			Members: append([]int(nil), members...),
		}
	}

	err := launchCoalitions(ctx, cfg.MaxConcurrent, runs,
		func(runCtx context.Context, cr *CoalitionRun) {
			runCoalition(runCtx, cfg, infra, tr, cr)
		},
		func(cr *CoalitionRun) error {
			// Durability first: once the caller has seen a coalition, its
			// blocks and aggregate are already down, so a crash after the
			// delivery never loses an observed outcome.
			if err := persistCoalition(cfg.Store, cr); err != nil {
				return err
			}
			if sink == nil {
				return nil
			}
			if err := sink(cr); err != nil {
				return err
			}
			cr.releasePayload()
			return nil
		})

	res := &Result{}
	if sink == nil {
		res.Coalitions = runs
	}
	for i := range runs {
		cr := &runs[i]
		if cr.Err != nil {
			continue
		}
		res.Windows += cr.Windows
		res.TotalBytes += cr.Bytes
		res.TotalMessages += cr.Msgs
		if cr.VirtualLatency > res.VirtualLatency {
			res.VirtualLatency = cr.VirtualLatency
		}
	}
	var serr error
	res.Settlement, res.Tiers, serr = settleGrid(cfg, runs)
	if serr != nil && err == nil {
		err = fmt.Errorf("settlement: %w", serr)
	}
	res.Duration = time.Since(start)
	return res, err
}

// settleGrid clears the residuals of the coalitions with Err nil through
// the tier tree: recursively under cfg.Tiers, or — empty schedule, a bare
// root — flat against the tariff, in which case no tiered settlement is
// reported. Returns (nil, nil, nil) when no coalition produced a residual.
func settleGrid(cfg Config, runs []CoalitionRun) (*market.GridSettlement, *market.TieredSettlement, error) {
	root := tierTree(cfg.Tiers, runs)
	if root == nil {
		return nil, nil, nil
	}
	tiers, err := market.SettleTiers(root, cfg.params())
	if err != nil {
		return nil, nil, err
	}
	if len(cfg.Tiers) == 0 {
		return tiers.Grid, nil, nil
	}
	return tiers.Grid, tiers, nil
}

// launchCoalitions runs runOne for every coalition in runs through
// core.RunOrdered under the maxConc budget (0 = all), filling each entry in
// place, and invokes deliver for each entry left with Err nil (traded or
// folded) in runs order. A coalition's Err stops launching; the entries
// never started are marked ErrCoalitionSkipped with the runner's cause. The
// returned error is the earliest failure ("coalition <name>: …"), a deliver
// error, or ctx.Err() on a clean cancel.
func launchCoalitions(ctx context.Context, maxConc int, runs []CoalitionRun, runOne func(context.Context, *CoalitionRun), deliver func(*CoalitionRun) error) error {
	return core.RunOrdered(ctx, len(runs), maxConc,
		func(runCtx context.Context, i int) error {
			if runOne(runCtx, &runs[i]); runs[i].Err != nil {
				return fmt.Errorf("coalition %s: %w", runs[i].Name, runs[i].Err)
			}
			return nil
		},
		func(i int, cause string) { runs[i].Err = fmt.Errorf("%w %s", ErrCoalitionSkipped, cause) },
		func(i int) error { return deliver(&runs[i]) })
}

// runCoalition executes one coalition's day: provision an engine over the
// shared resources, then run its windows one after another and account
// each as it completes, so every sum runs in window order — its traffic and
// virtual-clock figures, its trades as the next block of the coalition's
// tamper-evident ledger, and its residual and per-agent flows from the
// plaintext PEM oracle (market.ClearInto), the harness-side accounting
// behind every trading-performance figure (the private protocols reveal
// neither side's totals). Results, Windows, Ledger and Flows are set once
// the whole day has completed. A roster below MinCoalition is folded to
// grid-tariff service instead. All outcomes land in cr.
func runCoalition(ctx context.Context, cfg Config, infra core.Resources, tr *dataset.Trace, cr *CoalitionRun) {
	begin := time.Now()
	defer func() { cr.Duration = time.Since(begin) }()

	sub, err := tr.Select(cr.Members)
	if err != nil {
		cr.Err = err
		return
	}
	cr.IDs = make([]string, len(sub.Homes))
	for i, h := range sub.Homes {
		cr.IDs[i] = h.ID
	}

	params := cfg.params()
	if len(cr.IDs) < MinCoalition {
		// Too small to run a private market: the members' grid-only position
		// becomes the coalition residual.
		cr.Folded = true
		cr.Err = tariffDay(params, sub, cr)
		return
	}
	agents := sub.Agents()

	infra.Scope = cr.Name
	eng, err := core.NewEngineWith(cfg.Engine, agents, infra)
	if err != nil {
		cr.Err = fmt.Errorf("provision: %w", err)
		return
	}
	cr.Keys = eng.KeyFingerprints()
	cr.Rekey = time.Since(begin)
	defer eng.Close()

	results := make([]*core.WindowResult, 0, sub.Windows)
	led := ledger.New()
	flows := market.NewFlowAccumulator(agents)
	cr.Residual = market.CoalitionResidual{Coalition: cr.Name}
	var inputs []market.WindowInput
	var clr market.Clearing
	for w := 0; w < sub.Windows; w++ {
		if inputs, cr.Err = sub.AppendWindowInputs(inputs[:0], w); cr.Err != nil {
			return
		}
		res, err := eng.RunWindow(ctx, w, inputs)
		if err != nil {
			cr.Err = err
			return
		}
		results = append(results, res)
		cr.Bytes += res.BytesOnWire
		cr.Msgs += res.Messages
		cr.VirtualLatency += res.VirtualLatency
		cr.Rounds = max(cr.Rounds, res.Rounds)
		if _, err := led.Append(w, res.Price, ledger.RecordsFromTrades(res.Trades)); err != nil {
			cr.Err = fmt.Errorf("ledger window %d: %w", w, err)
			return
		}
		if err := market.ClearInto(&clr, agents, inputs, params); err != nil {
			cr.Err = fmt.Errorf("oracle window %d: %w", w, err)
			return
		}
		imp, exp := market.ResidualFromClearing(&clr)
		cr.Residual.ImportKWh += imp
		cr.Residual.ExportKWh += exp
		flows.Add(&clr, params)
	}
	cr.Results, cr.Windows = results, len(results)
	cr.Ledger, cr.ChainHead = led, ledger.HashString(led.Head().Hash)
	cr.Flows = flows.Flows()
}

// tariffRows recycles a folded day's row scratch, 3·Windows floats per
// member: pooled because coalitions fold concurrently.
var tariffRows = sync.Pool{New: func() any { return new([]float64) }}

// tariffDay accounts a folded coalition's day on the paper's "without PEM"
// baseline, every member trading its net energy only with the grid at the
// tariff, in one pass over the members' day rows, which a pending home
// synthesizes into tariffRows' scratch rather than storing. It is
// bit-identical to clearing each window with market.BaselineClearInto and
// folding it through ResidualFromClearing and a FlowAccumulator
// (TestTariffDayMatchesClearing): net is WindowInput.NetEnergy's g - l - b,
// a window's import and export are summed from 0 before joining the
// residual, and a grid leg reaches its member by roster position, as
// FlowAccumulator.Add books it.
func tariffDay(params market.Params, sub *dataset.Trace, cr *CoalitionRun) error {
	if err := params.Validate(); err != nil {
		return fmt.Errorf("tariff day: %w", err)
	}
	slab := tariffRows.Get().(*[]float64)
	defer tariffRows.Put(slab)
	day := 3 * sub.Windows
	if cap(*slab) < day*len(cr.IDs) {
		*slab = make([]float64, day*len(cr.IDs))
	}
	rows := make([][3][]float64, len(cr.IDs)) // a member's gen, load, battery
	for i := range rows {
		rows[i][0], rows[i][1], rows[i][2] = sub.DayRows(i, (*slab)[i*day:(i+1)*day])
	}
	flows := make([]market.AgentFlows, len(cr.IDs))
	touched := make([]bool, len(cr.IDs))
	cr.Residual = market.CoalitionResidual{Coalition: cr.Name}
	for w := 0; w < sub.Windows; w++ {
		var imp, exp float64
		for i := range flows {
			net := rows[i][0][w] - rows[i][1][w] - rows[i][2][w]
			f := &flows[i]
			switch market.ClassifyRole(net) {
			case market.RoleSeller:
				exp += net
				if net > 0 {
					f.GridExportKWh += net
					f.GridRevenueCents += net * params.GridSellPrice
					touched[i] = true
				}
			case market.RoleBuyer:
				imp += -net
				if -net > 0 {
					f.GridImportKWh += -net
					f.GridCostCents += -net * params.GridRetailPrice
					touched[i] = true
				}
			}
		}
		cr.Residual.ImportKWh += imp
		cr.Residual.ExportKWh += exp
	}
	cr.Flows = make(map[string]market.AgentFlows, len(flows))
	for i, id := range cr.IDs {
		if touched[i] {
			cr.Flows[id] = flows[i]
		}
	}
	return nil
}
