package grid

import (
	"context"
	"errors"
	"fmt"
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
	// MaxConcurrent is the global in-flight budget: how many coalition-days
	// run concurrently (default: all of them). Each in-flight coalition may
	// additionally pipeline Engine.MaxInflightWindows windows internally;
	// crypto parallelism stays bounded by the one shared worker pool either
	// way.
	MaxConcurrent int
	// MinCoalition is the smallest roster the supervisor will run a
	// private market for (default 3). A coalition below it — routine once
	// churn shrinks rosters — is not an error: it is folded into grid
	// settlement instead, its stranded agents trading with the main grid
	// at the tariff, and marked with ErrCoalitionSkipped. Set to 2 to run
	// every coalition the partitioner can produce (an engine needs a
	// counterparty, so 2 is the hard floor).
	MinCoalition int
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

// DefaultMinCoalition is the default roster floor for running a private
// market: below three agents the paper's protocols degenerate (the ring
// aggregations and pricing game need counterparties beyond the special
// parties), so two-agent coalitions default to grid-tariff settlement.
const DefaultMinCoalition = 3

// minCoalition resolves the configured roster floor.
func (c Config) minCoalition() int {
	if c.MinCoalition == 0 {
		return DefaultMinCoalition
	}
	return c.MinCoalition
}

// validate checks the supervisor-level configuration shared by Run and
// RunLive.
func (c Config) validate() error {
	if c.MaxConcurrent < 0 {
		return fmt.Errorf("grid: negative MaxConcurrent %d", c.MaxConcurrent)
	}
	if c.MinCoalition < 0 || c.MinCoalition == 1 {
		return fmt.Errorf("grid: MinCoalition %d out of range (0 = default %d, minimum 2)", c.MinCoalition, DefaultMinCoalition)
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
	// for folded coalitions; released after delivery on streaming runs —
	// see Stream).
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
	// Folded marks a coalition that was settled at the grid tariff instead
	// of running a private market because its roster was below
	// Config.MinCoalition. Folded coalitions carry ErrCoalitionSkipped in
	// Err but count as degraded service, not failure: their residuals and
	// flows are real and included in settlement.
	Folded bool
	// Err is the coalition's failure, nil on success. ErrCoalitionSkipped
	// marks coalitions never launched — because the run was already
	// stopping (the message names the cause), or (with Folded set) because
	// the roster was too small to run.
	Err error
}

// ErrCoalitionSkipped marks coalitions whose private market did not run:
// either the supervisor had stopped admitting work — after an earlier
// coalition failed, on context cancellation, or after a sink or store error
// aborted delivery; the wrapped message names which — or the roster was
// below Config.MinCoalition and the coalition was folded into grid
// settlement (distinguished by CoalitionRun.Folded).
var ErrCoalitionSkipped = errors.New("grid: coalition skipped")

// failure reports whether the coalition genuinely failed — skip markers
// (launch-stop bookkeeping and too-small-roster folds) are not failures.
func (cr *CoalitionRun) failure() bool {
	return cr.Err != nil && !errors.Is(cr.Err, ErrCoalitionSkipped)
}

// settleable reports whether the coalition produced a residual position to
// settle: it completed its day, or it was folded to grid-tariff service.
func (cr *CoalitionRun) settleable() bool {
	return cr.Err == nil || cr.Folded
}

// releasePayload drops the coalition's heavy per-window payload — results,
// flows, ledger, roster — keeping only the O(1) aggregates a settlement
// fold needs. Streaming runs call it after the sink has seen the run, which
// is what bounds a 10^5-coalition day to the coalitions in flight.
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
// partition order and strictly before the streaming payload release. A nil
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
	// Streaming runs leave it nil: per-coalition outcomes are delivered to
	// the sink instead, and only the fold below is retained.
	Coalitions []CoalitionRun
	// Settlement clears the completed and folded coalitions' residuals
	// against the grid tariff (nil when no coalition produced one). With
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
	// WindowsPerSec is the aggregate throughput: Windows / Duration.
	WindowsPerSec float64
}

// Run executes one trading day for every coalition of the partition over
// shared infrastructure, keeping every coalition's full outcome; Stream is
// the bounded-memory form. Failure semantics are core.RunOrdered's, as for
// windows: a failing coalition cancels only itself; the supervisor then
// stops launching new coalitions, drains the ones in flight, and reports the
// earliest failed coalition's error.
// Completed coalitions keep their results, and the returned Result is valid
// (with per-coalition Err set) even when err is non-nil. Coalitions below
// Config.MinCoalition are not failures: they are folded into grid
// settlement (see CoalitionRun.Folded).
func Run(ctx context.Context, cfg Config, tr *dataset.Trace, parts [][]int) (*Result, error) {
	return execute(ctx, cfg, tr, parts, nil)
}

// Stream executes the same grid day as Run but delivers each coalition's
// full outcome to sink in partition order as soon as that coalition — and
// every coalition before it — has completed, then releases its heavy
// payload. The returned Result carries the fold (settlement, tiers,
// traffic, throughput) with Coalitions nil, so memory stays bounded by the
// coalitions in flight rather than the partition size. The *CoalitionRun
// passed to sink is valid only during the call (copy what must outlive
// it); a sink error cancels the in-flight coalitions and aborts the run.
// Sink is never called for skipped coalitions, nor at or after the first
// failure. A seeded Stream is bit-identical to the batch Run — same
// per-coalition outcomes, ledger chain heads and settlement — at any sink
// consumption speed.
func Stream(ctx context.Context, cfg Config, tr *dataset.Trace, parts [][]int, sink func(*CoalitionRun) error) (*Result, error) {
	if sink == nil {
		return nil, errors.New("grid: Stream needs a sink (use Run)")
	}
	res, err := execute(ctx, cfg, tr, parts, func(cr *CoalitionRun) error {
		if err := sink(cr); err != nil {
			return err
		}
		cr.releasePayload()
		return nil
	})
	if res != nil {
		res.Coalitions = nil
	}
	return res, err
}

// execute is the shared body of Run and Stream: a one-shot grid is one
// coalition-day on infrastructure of its own.
func execute(ctx context.Context, cfg Config, tr *dataset.Trace, parts [][]int, deliver func(*CoalitionRun) error) (*Result, error) {
	if len(parts) == 0 {
		return nil, errors.New("grid: empty partition")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// One bus, one bounded crypto pool. No key ring: rosters are disjoint
	// and the day is the whole run, so each engine's own is the same thing.
	res, err := runDay(ctx, cfg, core.Resources{Bus: transport.NewBus(nil), Workers: paillier.NewWorkers(0)}, tr, parts, "", deliver)
	if err != nil {
		err = fmt.Errorf("grid: %w", err)
	}
	return res, err
}

// runDay is the one coalition-day supervisor, shared by the one-shot grid
// (fresh infrastructure, scope "") and every live-grid epoch (the
// simulation's infrastructure, scope "eNN-"): name the partition's
// coalitions scope+"cNN", run them provision-then-trade under the
// MaxConcurrent budget, persist and deliver each in partition order, then
// fold the day's traffic and settle its residuals. The returned Result is
// valid (with per-coalition Err set) even when err is non-nil; err is the
// launcher's (see launchCoalitions) or, failing that, the settlement's.
func runDay(ctx context.Context, cfg Config, infra core.Resources, tr *dataset.Trace, parts [][]int, scope string, deliver func(*CoalitionRun) error) (*Result, error) {
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
			if deliver == nil {
				return nil
			}
			return deliver(cr)
		})

	res := &Result{Coalitions: runs}
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
	if res.Duration > 0 {
		res.WindowsPerSec = float64(res.Windows) / res.Duration.Seconds()
	}
	return res, err
}

// settleGrid clears the settleable coalitions' residuals through the tier
// tree: recursively under cfg.Tiers, or — empty schedule, a bare root —
// flat against the tariff, in which case no tiered settlement is reported.
// Returns (nil, nil, nil) when no coalition produced a residual.
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
// place, and invokes deliver for each completed or folded entry in runs
// order. A genuine failure (not a skip marker) stops launching; the entries
// never started are marked ErrCoalitionSkipped with the runner's cause. The
// returned error is the earliest genuine failure ("coalition <name>: …"), a
// deliver error, or ctx.Err() on a clean cancel.
func launchCoalitions(ctx context.Context, maxConc int, runs []CoalitionRun, runOne func(context.Context, *CoalitionRun), deliver func(*CoalitionRun) error) error {
	return core.RunOrdered(ctx, len(runs), maxConc,
		func(runCtx context.Context, i int) error {
			if runOne(runCtx, &runs[i]); runs[i].failure() {
				return fmt.Errorf("coalition %s: %w", runs[i].Name, runs[i].Err)
			}
			return nil
		},
		func(i int, cause string) { runs[i].Err = fmt.Errorf("%w %s", ErrCoalitionSkipped, cause) },
		func(i int) error {
			if deliver == nil || !runs[i].settleable() {
				return nil
			}
			return deliver(&runs[i])
		})
}

// runCoalition executes one coalition's day: provision an engine over the
// shared resources, run every window through it, and fold the plaintext
// oracle's residuals and per-agent flows. A roster below MinCoalition is
// folded to grid-tariff service instead. All outcomes land in cr.
func runCoalition(ctx context.Context, cfg Config, infra core.Resources, tr *dataset.Trace, cr *CoalitionRun) {
	begin := time.Now()
	defer func() { cr.Duration = time.Since(begin) }()

	sub, err := tr.Select(cr.Members)
	if err != nil {
		cr.Err = err
		return
	}
	agents := sub.Agents()
	cr.IDs = make([]string, len(agents))
	for i, a := range agents {
		cr.IDs[i] = a.ID
	}

	if len(agents) < cfg.minCoalition() {
		// Too small to run a private market: the members' grid-only position
		// becomes the coalition residual, and the coalition is marked
		// skipped-but-folded so settlement includes it while failure
		// handling does not.
		cr.Err = oracleAccounting(cfg, agents, sub.Windows, cr, sub.AppendWindowInputs, market.BaselineClearInto)
		if cr.Err == nil {
			cr.Folded = true
			cr.Err = fmt.Errorf("%w: %d agents below minimum %d, folded into grid settlement",
				ErrCoalitionSkipped, len(agents), cfg.minCoalition())
		}
		return
	}

	jobs := make([]core.WindowJob, sub.Windows)
	for w := 0; w < sub.Windows; w++ {
		inputs, err := sub.WindowInputs(w)
		if err != nil {
			cr.Err = err
			return
		}
		jobs[w] = core.WindowJob{Window: w, Inputs: inputs}
	}

	infra.Scope = cr.Name
	eng, err := core.NewEngineWith(cfg.Engine, agents, infra)
	if err != nil {
		cr.Err = fmt.Errorf("provision: %w", err)
		return
	}
	cr.Keys = eng.KeyFingerprints()
	cr.Rekey = time.Since(begin)
	defer eng.Close()

	results, err := eng.RunWindows(ctx, jobs)
	if err != nil {
		cr.Err = err
		return
	}
	cr.Results = results
	if cr.Err = coalitionAccounting(cr); cr.Err != nil {
		return
	}
	cr.Err = oracleAccounting(cfg, agents, sub.Windows, cr,
		func(_ []market.WindowInput, w int) ([]market.WindowInput, error) { return jobs[w].Inputs, nil }, market.ClearInto)
}

// coalitionAccounting sums a completed coalition-day's traffic and
// virtual-clock figures from its WindowResults and commits the day's trades
// to the coalition's tamper-evident ledger: the settlement-path bookkeeping
// shared by one-shot and live grids.
func coalitionAccounting(cr *CoalitionRun) error {
	led := ledger.New()
	for _, res := range cr.Results {
		if res == nil {
			continue
		}
		cr.Bytes += res.BytesOnWire
		cr.Msgs += res.Messages
		cr.VirtualLatency += res.VirtualLatency
		if res.Rounds > cr.Rounds {
			cr.Rounds = res.Rounds
		}
		if _, err := led.Append(res.Window, res.Price, ledger.RecordsFromTrades(res.Trades)); err != nil {
			return fmt.Errorf("ledger window %d: %w", res.Window, err)
		}
	}
	cr.Ledger = led
	cr.ChainHead = ledger.HashString(led.Head().Hash)
	cr.Windows = len(cr.Results)
	return nil
}

// oracleAccounting computes the coalition's residual position and per-agent
// flows by clearing every window's inputs in the plaintext — the
// harness-side accounting used by every trading-performance figure; the
// private protocols reveal neither side's totals. clear is the PEM oracle
// (market.ClearInto) for a coalition that traded, and the paper's "without
// PEM" baseline (market.BaselineClearInto: every member trades only with
// the main grid) for a folded one. inputs may append to dst, which is the
// previous window's slice (Trace.AppendWindowInputs): with that, one
// clearing and one flow accumulator, a day allocates nothing per window.
func oracleAccounting(cfg Config, agents []market.Agent, windows int, cr *CoalitionRun,
	inputs func(dst []market.WindowInput, window int) ([]market.WindowInput, error),
	clear func(*market.Clearing, []market.Agent, []market.WindowInput, market.Params) error) error {
	params := cfg.params()
	cr.Residual = market.CoalitionResidual{Coalition: cr.Name}
	flows := market.NewFlowAccumulator(agents)
	var clr market.Clearing
	var in []market.WindowInput
	for w := 0; w < windows; w++ {
		var err error
		if in, err = inputs(in[:0], w); err != nil {
			return err
		}
		if err := clear(&clr, agents, in, params); err != nil {
			return fmt.Errorf("oracle window %d: %w", w, err)
		}
		imp, exp := market.ResidualFromClearing(&clr)
		cr.Residual.ImportKWh += imp
		cr.Residual.ExportKWh += exp
		flows.Add(&clr, params)
	}
	cr.Flows = flows.Flows()
	return nil
}
