package grid

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"github.com/pem-go/pem/internal/core"
	"github.com/pem-go/pem/internal/dataset"
	"github.com/pem-go/pem/internal/market"
	"github.com/pem-go/pem/internal/paillier"
	"github.com/pem-go/pem/internal/store"
	"github.com/pem-go/pem/internal/transport"
)

// The epoch layer turns the one-shot grid into a long-running live system.
// A multi-day simulation is split into epochs; at each epoch boundary a
// seeded churn model (dataset.Evolve) updates the fleet — prosumers join,
// depart and fail — the partitioner re-partitions the surviving-plus-new
// agents, and every coalition re-keys: a fresh engine, key directory and
// transport scope per (epoch, coalition), over the same shared bus, crypto
// worker pool and key ring. A key pair belongs to a home, not to an epoch:
// survivors keep theirs in the ring, joiners are generated into it, and a
// departed or failed home's is evicted and zeroed at the boundary — so
// re-keying costs what churn costs, not a restart. Settlement carries
// across epochs in a market.PositionBook: per-agent cumulative positions
// survive re-partitioning because they are keyed by agent ID, and an agent
// that leaves settles and freezes at its exit epoch.

// LiveConfig configures a live (epoched) grid run.
type LiveConfig struct {
	// Grid carries the per-coalition engine configuration and the
	// supervisor budgets, exactly as for a one-shot Run. When Engine.Seed
	// is set, key pairs derive from it per home (see core.KeyRing) and
	// everything else — mask seeds, window randomness — from a per-epoch
	// seed derived from it.
	Grid Config
	// Coalitions is the target coalition count per epoch (required). When
	// churn shrinks the fleet below 2·Coalitions the epoch runs with the
	// largest count the roster can fill.
	Coalitions int
	// Partition selects the per-epoch partition strategy (default
	// StrategyFixed). Every epoch re-partitions from scratch: membership
	// follows the surviving-plus-new roster, not history.
	Partition Strategy
	// PartitionSeed feeds the random strategy; a per-epoch seed is derived
	// from it so consecutive epochs shuffle differently.
	PartitionSeed int64
	// Resume, when set, restarts the simulation from a durable checkpoint:
	// the position book is restored bit-exactly from Resume.Positions and
	// every epoch up to and including Resume.Epoch is skipped. The
	// evolution and configuration must match the checkpointed run — the
	// per-epoch engine and partition seeds derive independently from the
	// base seeds, so the remaining epochs replay bit-identically to an
	// uninterrupted run. The returned LiveResult's traffic and timing
	// counters cover only the resumed epochs; positions and conservation
	// cover the whole simulation.
	Resume *store.Checkpoint
	// CheckpointMeta is an opaque caller blob recorded (with its SHA-256)
	// in every checkpoint the run writes. The pem facade serializes its
	// public configuration here so a later Resume can rebuild the run from
	// the store file alone and refuse a mismatched configuration.
	CheckpointMeta []byte
}

// Validate checks the live configuration, including that the partition
// strategy exists. RunLive validates on entry; pem.NewGrid and
// pem.NewLiveGrid also call it at construction so a statically-bad config
// fails before the fleet evolution or any key material is built.
func (c LiveConfig) Validate() error {
	if err := c.Grid.validate(); err != nil {
		return err
	}
	if c.Coalitions <= 0 {
		return fmt.Errorf("grid: Coalitions must be positive, got %d", c.Coalitions)
	}
	switch c.Partition {
	case StrategyFixed, StrategyRandom, StrategyBalanced, "":
		return nil
	default:
		return fmt.Errorf("grid: unknown partition strategy %q", c.Partition)
	}
}

// EpochResult is the outcome of one epoch of a live grid: one trading day
// over that epoch's roster and partition.
type EpochResult struct {
	// Epoch is the epoch index.
	Epoch int
	// Agents is the roster size for the epoch.
	Agents int
	// Joined, Departed and Failed list the churn applied at the boundary
	// entering this epoch (all empty for epoch 0).
	Joined, Departed, Failed []string
	// Coalitions holds the per-coalition outcomes, in partition order,
	// named "e<epoch>-c<index>" (also their transport scope).
	Coalitions []CoalitionRun
	// Settlement clears the epoch's coalition residuals — completed and
	// folded alike — against the grid tariff. With Grid.Tiers it is the
	// epoch hierarchy's grid boundary and equals Tiers.Grid.
	Settlement *market.GridSettlement
	// Tiers is the epoch's recursive settlement under Grid.Tiers: the
	// epoch's coalitions roll up through districts and regions before the
	// unmatched remainder touches the tariff. Nil on flat runs.
	Tiers *market.TieredSettlement
	// Windows counts completed trading windows across the epoch.
	Windows int
	// Bytes is the epoch's protocol traffic on the shared bus.
	Bytes int64
	// Msgs is the epoch's protocol message count, mirroring Bytes.
	Msgs int64
	// VirtualLatency is the epoch's virtual duration on the emulated
	// network: the slowest coalition's day, since the epoch's coalitions
	// trade concurrently. Zero on unemulated runs.
	VirtualLatency time.Duration
	// Rekey is the epoch's re-key critical path: the slowest coalition's
	// engine provisioning (the largest CoalitionRun.Rekey) — key generation
	// for the coalition's joiners, look-ups for its survivors. At the default
	// unbounded budget every coalition provisions from the epoch's start, so
	// this is also the wall-clock until the last engine is keyed. Reported
	// separately so churn cost stays distinguishable from trading throughput.
	Rekey time.Duration
	// Trading is the rest of the epoch: Duration − Rekey.
	Trading time.Duration
	// Duration is the epoch's total wall-clock time (partitioning,
	// re-keying, trading, settlement and teardown).
	Duration time.Duration
}

// LiveResult is the outcome of a full live-grid simulation.
type LiveResult struct {
	// Epochs holds one entry per executed epoch, in order, each with its
	// full per-coalition payload (window results, flows, ledgers, rosters).
	// On failure the last entry is the partial epoch that failed. Streaming
	// runs (StreamLive) leave Epochs nil and deliver each epoch to the sink
	// instead.
	Epochs []EpochResult
	// Positions are the per-agent cumulative positions across all epochs,
	// sorted by agent ID; departed and failed agents are frozen at their
	// exit epoch.
	Positions []market.AgentPosition
	// Windows counts completed trading windows across all epochs.
	Windows int
	// Duration is the whole simulation's wall-clock time.
	Duration time.Duration
	// TotalBytes is the fleet's protocol traffic across all epochs.
	TotalBytes int64
	// TotalMessages is the fleet's protocol message count across all
	// epochs.
	TotalMessages int64
	// VirtualLatency is the simulation's virtual duration on the emulated
	// network: the sum of the epochs' virtual durations, since epochs are
	// consecutive trading days. Zero on unemulated runs.
	VirtualLatency time.Duration
	// Rekey sums the epochs' re-key critical paths (EpochResult.Rekey).
	Rekey time.Duration
	// Trading sums the epochs' remainders (EpochResult.Trading), so Rekey +
	// Trading is the time spent inside epochs.
	Trading time.Duration
	// WindowsPerSec is the steady-state throughput — Windows / Trading —
	// with re-keying cost excluded (it is reported in Rekey instead).
	WindowsPerSec float64
	// EnergyImbalanceKWh and PaymentImbalanceCents are the fleet-wide PEM
	// conservation checks over the whole simulation (zero up to float
	// noise): energy sold inside the markets equals energy bought, and
	// every cent paid lands with a counterparty.
	EnergyImbalanceKWh, PaymentImbalanceCents float64
}

// RunLive executes a multi-epoch live-grid simulation over the evolution's
// fleet history. Epochs run in order (they are consecutive trading days);
// within an epoch, coalition-days — provisioning included — run concurrently
// under Grid.MaxConcurrent, through the same supervisor as a one-shot Run. A
// genuine coalition failure aborts the simulation after draining its epoch;
// the returned LiveResult keeps all completed epochs plus the partial one.
// With Grid.Engine.Seed set, the whole simulation is deterministic:
// bit-identical per (epoch, coalition) at any coalition concurrency. RunLive
// keeps every epoch's full payload, as Run keeps every coalition's; StreamLive
// is the bounded-memory form.
func RunLive(ctx context.Context, cfg LiveConfig, evo *dataset.Evolution) (*LiveResult, error) {
	return streamLive(ctx, cfg, evo, nil)
}

// StreamLive executes the same simulation as RunLive but delivers each
// epoch's full outcome to sink as soon as its flows are settled into the
// position book, then releases the epoch's heavy payload once the sink
// returns and moves on. The returned LiveResult carries the cross-epoch
// fold — positions, conservation, traffic, throughput — with Epochs nil
// (except on failure, where the partial failing epoch is kept for
// diagnosis), so an unbounded simulation runs in the memory of one epoch. The *EpochResult passed to sink is valid only during the call
// (copy what must outlive it); a sink error aborts the simulation. Sink is
// not called for an epoch that failed. A seeded StreamLive is bit-identical
// to the batch RunLive — same per-epoch settlements, positions and ledger
// chain heads — at any sink consumption speed.
func StreamLive(ctx context.Context, cfg LiveConfig, evo *dataset.Evolution, sink func(*EpochResult) error) (*LiveResult, error) {
	if sink == nil {
		return nil, errors.New("grid: StreamLive needs a sink (use RunLive)")
	}
	return streamLive(ctx, cfg, evo, sink)
}

// streamLive is the shared body of RunLive (nil sink: epochs retained on
// the result) and StreamLive (epochs delivered and released).
func streamLive(ctx context.Context, cfg LiveConfig, evo *dataset.Evolution, sink func(*EpochResult) error) (*LiveResult, error) {
	if evo == nil || len(evo.Epochs) == 0 {
		return nil, errors.New("grid: live run needs a non-empty evolution")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	book, err := market.NewPositionBook(cfg.Grid.params())
	if err != nil {
		return nil, err
	}
	if cfg.Resume != nil {
		if err := book.Restore(cfg.Resume.Positions); err != nil {
			return nil, err
		}
	}

	// Shared infrastructure for the whole simulation: one bus, one bounded
	// crypto pool, one key ring. Epochs re-key over it — fresh engines and
	// scopes, fresh keys for joiners only — but never tear it down, which is
	// what keeps churn bounded work.
	infra := core.Resources{Bus: transport.NewBus(nil), Workers: paillier.NewWorkers(0), Keys: core.NewKeyRing(cfg.Grid.Engine)}

	start := time.Now()
	res := &LiveResult{}
	var firstErr error
	for _, ef := range evo.Epochs {
		// A resumed run replays the evolution from its start — the fleet
		// history is seed-derived — but the checkpointed epochs' effects are
		// already in the restored book, so they are skipped whole: churn,
		// trading and checkpointing alike.
		if cfg.Resume != nil && ef.Epoch <= cfg.Resume.Epoch {
			continue
		}
		if err := applyBoundary(book, infra.Keys, &ef); err != nil {
			firstErr = err
			break
		}
		er, err := runEpoch(ctx, cfg, infra, &ef)
		res.Windows += er.Windows
		res.TotalBytes += er.Bytes
		res.TotalMessages += er.Msgs
		res.VirtualLatency += er.VirtualLatency
		res.Rekey += er.Rekey
		res.Trading += er.Trading
		if err == nil {
			err = applyEpochFlows(book, er)
		}
		if err == nil && sink != nil {
			err = sink(er)
		}
		if err == nil {
			err = persistEpochBoundary(cfg, book, &ef, er)
		}
		// RunLive keeps every epoch, and a failed epoch is kept for its
		// diagnosis. A streamed epoch's flows are in the book and the sink
		// has seen the full payload; from here only the fold is needed, so
		// drop the heavy per-coalition state.
		if sink == nil || err != nil {
			res.Epochs = append(res.Epochs, *er)
		} else {
			for i := range er.Coalitions {
				er.Coalitions[i].releasePayload()
			}
		}
		if err != nil {
			firstErr = fmt.Errorf("grid: epoch %d: %w", ef.Epoch, err)
			break
		}
	}

	res.Duration = time.Since(start)
	res.Positions = book.Positions()
	res.EnergyImbalanceKWh, res.PaymentImbalanceCents = book.Conservation()
	if res.Trading > 0 {
		res.WindowsPerSec = float64(res.Windows) / res.Trading.Seconds()
	}
	return res, firstErr
}

// persistEpochBoundary durably checkpoints a completed epoch: the full
// position book first, then the checkpoint record marking the epoch done.
// It runs after the epoch's flows are folded and the sink has delivered,
// but before the payload release, so a crash at any point resumes from the
// last completed epoch with nothing observable lost. PutCheckpoint syncs,
// which makes the write order a commit point — a torn checkpoint write
// leaves the previous epoch's resume point intact. A nil store is a no-op.
func persistEpochBoundary(cfg LiveConfig, book *market.PositionBook, ef *dataset.EpochFleet, er *EpochResult) error {
	st := cfg.Grid.Store
	if st == nil {
		return nil
	}
	positions := book.Snapshot()
	if err := st.UpsertPositions(positions); err != nil {
		return fmt.Errorf("store: epoch %d positions: %w", ef.Epoch, err)
	}
	cp := store.Checkpoint{
		Epoch:     ef.Epoch,
		Roster:    make([]string, len(ef.Trace.Homes)),
		Positions: positions,
		Config:    cfg.CheckpointMeta,
	}
	for i, h := range ef.Trace.Homes {
		cp.Roster[i] = h.ID
	}
	for i := range er.Coalitions {
		if cr := &er.Coalitions[i]; cr.ChainHead != "" {
			cp.ChainHeads = append(cp.ChainHeads, store.ChainHead{Scope: cr.Name, Head: cr.ChainHead})
		}
	}
	if s := cfg.Grid.Engine.Seed; s != nil {
		cp.Seed = *s
	}
	if len(cfg.CheckpointMeta) > 0 {
		sum := sha256.Sum256(cfg.CheckpointMeta)
		cp.ConfigHash = hex.EncodeToString(sum[:])
	}
	if err := st.PutCheckpoint(cp); err != nil {
		return fmt.Errorf("store: epoch %d checkpoint: %w", ef.Epoch, err)
	}
	return nil
}

// applyBoundary applies one epoch's churn events to the position book and
// the key ring: leavers settle and freeze at their last traded epoch and
// lose their key pair, joiners open fresh positions (their keys are
// generated when their coalition provisions). Epoch 0 only opens the base
// fleet's positions.
func applyBoundary(book *market.PositionBook, keys *core.KeyRing, ef *dataset.EpochFleet) error {
	keys.Evict(ef.Departed...)
	keys.Evict(ef.Failed...)
	for _, id := range ef.Departed {
		if err := book.Exit(id, ef.Epoch-1, string(dataset.ChurnDepart), 0, 0); err != nil {
			return err
		}
	}
	for _, id := range ef.Failed {
		if err := book.Exit(id, ef.Epoch-1, string(dataset.ChurnFail), 0, 0); err != nil {
			return err
		}
	}
	if ef.Epoch == 0 {
		for _, h := range ef.Trace.Homes {
			if err := book.Join(h.ID, 0); err != nil {
				return err
			}
		}
		return nil
	}
	for _, id := range ef.Joined {
		if err := book.Join(id, ef.Epoch); err != nil {
			return err
		}
	}
	return nil
}

// applyEpochFlows folds every coalition's per-agent flows — completed and
// folded coalitions alike — into the position book, in coalition order so
// the floating-point accumulation is deterministic.
func applyEpochFlows(book *market.PositionBook, er *EpochResult) error {
	for i := range er.Coalitions {
		cr := &er.Coalitions[i]
		if !cr.settleable() {
			continue
		}
		if err := book.Apply(er.Epoch, cr.Flows); err != nil {
			return err
		}
	}
	return nil
}

// runEpoch executes one epoch: re-partition the epoch's roster and run it as
// one coalition-day (runDay) over the simulation's infrastructure, under
// the epoch's own engine seed and "eNN-" scope — which, with the key pairs
// the ring does not hold yet, is all that re-keying is. The returned
// EpochResult is valid even on error, with per-coalition Err set.
func runEpoch(ctx context.Context, cfg LiveConfig, infra core.Resources, ef *dataset.EpochFleet) (*EpochResult, error) {
	begin := time.Now()
	er := &EpochResult{
		Epoch:    ef.Epoch,
		Agents:   len(ef.Trace.Homes),
		Joined:   ef.Joined,
		Departed: ef.Departed,
		Failed:   ef.Failed,
	}
	// The epoch's phase split is defined here and nowhere else: Rekey is the
	// slowest coalition's provisioning (set below), Trading the remainder.
	defer func() {
		er.Duration = time.Since(begin)
		er.Trading = er.Duration - er.Rekey
	}()

	// Churn may have shrunk the roster below what the requested coalition
	// count can fill; degrade to the largest count whose coalitions still
	// meet the private-market floor, rather than partition the roster into
	// slivers that would all fold to grid-tariff service.
	k := max(1, min(cfg.Coalitions, len(ef.Trace.Homes)/cfg.Grid.minCoalition()))
	parts, err := Partition(cfg.Partition, ef.Trace.Homes, k, deriveEpochSeed(cfg.PartitionSeed, ef.Epoch))
	if err != nil {
		return er, err
	}

	// Everything an epoch's engines draw themselves — mask seeds, window
	// randomness — gets a per-epoch engine seed, so a seeded simulation's
	// epochs are fresh but reproducible. Key pairs are the exception: the
	// ring derives them from the simulation seed, per home.
	gcfg := cfg.Grid
	if s := gcfg.Engine.Seed; s != nil {
		es := deriveEpochSeed(*s, ef.Epoch)
		gcfg.Engine.Seed = &es
	}

	day, err := runDay(ctx, gcfg, infra, ef.Trace, parts, fmt.Sprintf("e%02d-", ef.Epoch), nil)
	er.Coalitions = day.Coalitions
	er.Settlement, er.Tiers = day.Settlement, day.Tiers
	er.Windows, er.Bytes, er.Msgs = day.Windows, day.TotalBytes, day.TotalMessages
	er.VirtualLatency = day.VirtualLatency
	for i := range er.Coalitions {
		if rk := er.Coalitions[i].Rekey; rk > er.Rekey {
			er.Rekey = rk
		}
	}
	return er, err
}

// deriveEpochSeed expands a simulation seed into one independent stream per
// epoch, FNV-hashed like the dataset's seed derivation so the mapping is
// stable across runs and platforms.
func deriveEpochSeed(seed int64, epoch int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "pem/grid/epoch/%d/%d", seed, epoch)
	return int64(h.Sum64())
}
