package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/pem-go/pem"
	"github.com/pem-go/pem/internal/dataset"
	"github.com/pem-go/pem/internal/grid"
	"github.com/pem-go/pem/internal/ledger"
)

// grid.live-wal: a churning live grid checkpointing through a real WAL file
// (real fsync), then Close, replay and Resume from that file. The traced run
// differs from the untraced one only by the timing Store decorator and the
// spans.

// liveCoalition is what the sink keeps of one coalition-day for the checks
// that run after the measured interval. The slices outlive the sink call:
// the grid's payload release only drops its own references.
type liveCoalition struct {
	name    string
	members []int
	results []*pem.WindowResult
	ledger  *pem.Ledger
	head    string
	err     error
	folded  bool
	trading time.Duration
}

type liveEpoch struct {
	epoch          int
	rekey, trading time.Duration
	coalitions     []liveCoalition
}

func liveConfigs(sz sizes, seed int64, st pem.Store) (pem.LiveGridConfig, pem.FleetConfig) {
	return pem.LiveGridConfig{
			Market:     marketConfig(pem.BackendHybrid, sz, seed),
			Coalitions: sz.liveCoalitions,
			Partition:  pem.PartitionBalanced,
			Epochs:     sz.liveEpochs,
			Churn:      sz.churn,
			Store:      st,
		}, pem.FleetConfig{
			Coalitions:        sz.liveBlocks,
			HomesPerCoalition: sz.liveHomesPerBlock,
			Windows:           sz.liveWindows,
			Seed:              seed,
			StartHour:         11,
		}
}

// runLive runs the workload; tr is nil on the untraced run.
func runLive(ctx context.Context, sz sizes, seed int64, budget time.Duration, scratch string, tr *tracer) (*report, []float64, error) {
	r := newReport("grid.live-wal", seed, tr != nil, budget == 0)
	root := tr.begin(0, "bench", "run", -1)

	dir, err := os.MkdirTemp(scratch, "wal-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "live.wal")

	id := tr.begin(root, "store", "OpenWAL", -1)
	wal, err := pem.OpenWAL(path)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	defer wal.Close()
	var st pem.Store = wal
	var timed *timedStore
	if tr != nil {
		timed = newTimedStore(wal, tr)
		st = timed
	}

	// Set-up, repeated: fleet and churn synthesis. (Key provisioning happens
	// per epoch inside the run; its median joins setup_s below.)
	cfg, fleet := liveConfigs(sz, seed, st)
	var setups []float64
	var lg *pem.LiveGrid
	for i := 0; i < sz.setupReps; i++ {
		id = tr.begin(root, "grid", "new_live_grid", -1)
		t := time.Now()
		lg, err = pem.NewLiveGrid(cfg, fleet)
		setups = append(setups, time.Since(t).Seconds())
		tr.end(id)
		if err != nil {
			return nil, nil, err
		}
	}

	// A time-limited run stops at the first epoch boundary past the budget:
	// the sink cancels the run's context, the epoch's checkpoint still
	// commits, and the next epoch is never keyed.
	runCtx, stop := context.WithCancel(ctx)
	defer stop()
	var epochs []liveEpoch
	stream := tr.begin(root, "grid", "stream", -1)
	if timed != nil {
		timed.parent.Store(int64(stream))
	}
	start := time.Now()
	res, err := lg.Stream(runCtx, func(er *pem.EpochResult) error {
		le := liveEpoch{epoch: er.Epoch, rekey: er.Rekey, trading: er.Trading}
		for i := range er.Coalitions {
			cr := &er.Coalitions[i]
			le.coalitions = append(le.coalitions, liveCoalition{
				name: cr.Name, members: cr.Members, results: cr.Results,
				ledger: cr.Ledger, head: cr.ChainHead, err: cr.Err, folded: cr.Folded,
				trading: cr.Duration - cr.Rekey,
			})
		}
		epochs = append(epochs, le)
		if budget > 0 && time.Since(start) >= budget {
			stop()
		}
		return nil
	})
	interval := time.Since(start)
	tr.end(stream)
	if timed != nil {
		timed.parent.Store(int64(root))
	}
	stopped := runCtx.Err() != nil && ctx.Err() == nil
	if err != nil && !(stopped && errors.Is(err, context.Canceled)) {
		return nil, nil, err
	}
	if len(epochs) == 0 {
		return nil, nil, errors.New("no epoch completed")
	}
	r.check(math.Abs(res.EnergyImbalanceKWh) <= 1e-9 && math.Abs(res.PaymentImbalanceCents) <= 1e-6,
		"conservation: energy %g kWh, payments %g cents", res.EnergyImbalanceKWh, res.PaymentImbalanceCents)

	ls, err := checkLiveEpochs(r, tr, root, sz, fleet, epochs)
	if err != nil {
		return nil, nil, err
	}
	if err := st.Close(); err != nil {
		return nil, nil, err
	}
	rp, err := replayLive(r, tr, root, path, epochs, res.Positions, stopped)
	if err != nil {
		return nil, nil, err
	}
	tr.end(root)

	var rekeys []float64
	var rekey, trading time.Duration
	for _, le := range epochs {
		rekeys = append(rekeys, le.rekey.Seconds())
		rekey += le.rekey
		trading += le.trading
	}
	r.Samples = len(ls.latency)
	r.set("window_ms_p50", quantile(ls.latency, 0.50))
	r.set("window_ms_p90", quantile(ls.latency, 0.90))
	r.set("agent_windows_per_s", float64(ls.agentWindows)/interval.Seconds())
	r.set("wire_bytes_per_window", ratio(float64(res.TotalBytes), float64(ls.protocolWindows)))
	r.set("setup_s", median(setups)+median(rekeys))
	r.Extra["window_ms_p99"] = quantile(ls.latency, 0.99)
	r.Extra["window_ms_max"] = quantile(ls.latency, 1)
	r.Extra["epochs"] = float64(len(epochs))
	r.Exact["epochs"] = strconv.Itoa(len(epochs))
	r.Exact["windows"] = strconv.Itoa(res.Windows)
	r.Exact["wire_bytes"] = strconv.FormatInt(res.TotalBytes, 10)
	r.Exact["messages"] = strconv.FormatInt(res.TotalMessages, 10)
	r.Exact["wal_bytes"] = strconv.FormatInt(rp.walBytes, 10)
	r.Exact["ledger_heads"] = headsDigest(epochs)
	if tr != nil {
		r.set("trace.window_ms_p50", quantile(ls.latency, 0.50))
		r.set("core.window_ms", median(ls.windowMs))
		r.set("core.degenerate_windows", float64(ls.degenerate))
		r.set("transport.msgs_per_window", ratio(float64(res.TotalMessages), float64(ls.protocolWindows)))
		r.set("transport.bytes_per_window", ratio(float64(res.TotalBytes), float64(ls.protocolWindows)))
		r.set("ledger.append_us", median(ls.appendUs))
		r.set("ledger.verify_ms", median(ls.verifyMs))
		r.set("market.clear_us", median(ls.clearUs))
		r.set("dataset.generate_ms", ms(ls.evolve))
		r.set("dataset.window_inputs_us", median(ls.inputsUs))
		r.set("grid.rekey_s", rekey.Seconds())
		r.set("grid.trading_s", trading.Seconds())
		r.set("grid.other_s", (interval - rekey - trading).Seconds())
		r.set("grid.partition_ms", ms(ls.partition))
		r.set("grid.folded_coalitions", float64(ls.folded))
		r.set("store.append_us", median(timed.durations(us, "AppendBlock")))
		r.set("store.sync_ms", median(timed.durations(ms, "PutCheckpoint", "Sync", "Close")))
		var calls int
		for method, n := range timed.callCounts() {
			calls += n
			r.Extra["store.calls."+method] = float64(n)
		}
		r.set("store.calls", float64(calls))
		r.set("store.wal_bytes", float64(rp.walBytes))
		r.set("store.replay_ms", ms(rp.replay))
		r.set("store.resume_ms", ms(rp.resume))
	}
	return r, ls.latency, nil
}

// liveStats is what checking the epochs yields besides the checks
// themselves.
type liveStats struct {
	// latency holds one sample per coalition-day: trading wall-clock per
	// window, scaled to the nominal coalition size.
	latency []float64
	// windowMs holds every window's own WindowResult.Duration.
	windowMs                      []float64
	clearUs, inputsUs             []float64
	appendUs, verifyMs            []float64
	agentWindows, protocolWindows int
	degenerate, folded            int
	// evolve and partition time the generators the check re-runs.
	evolve, partition time.Duration
}

// checkLiveEpochs regenerates the run's fleet evolution and holds every
// protocol window to the plaintext oracle and every coalition's ledger to
// its window results.
func checkLiveEpochs(r *report, tr *tracer, root int, sz sizes, fleet pem.FleetConfig, epochs []liveEpoch) (*liveStats, error) {
	ls := &liveStats{}
	id := tr.begin(root, "dataset", "evolve", -1)
	churn := sz.churn
	churn.Epochs = sz.liveEpochs
	t := time.Now()
	evo, err := dataset.Evolve(fleet, churn)
	ls.evolve = time.Since(t)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	if _, err := grid.Partition(grid.StrategyBalanced, evo.Epochs[0].Trace.Homes, sz.liveCoalitions, fleet.Seed); err != nil {
		return nil, err
	}
	ls.partition = time.Since(t)

	var clr pem.Clearing
	for _, le := range epochs {
		for _, lc := range le.coalitions {
			if lc.folded {
				ls.folded++
				continue
			}
			if lc.err != nil {
				r.check(false, "coalition %s: %v", lc.name, lc.err)
				continue
			}
			sub, err := evo.Epochs[le.epoch].Trace.Select(lc.members)
			if err != nil {
				return nil, err
			}
			agents := sub.Agents()
			again := ledger.New()
			for _, wr := range lc.results {
				t := time.Now()
				inputs, err := sub.WindowInputs(wr.Window)
				ls.inputsUs = append(ls.inputsUs, us(time.Since(t)))
				if err != nil {
					return nil, err
				}
				ls.clearUs = append(ls.clearUs, us(r.checkWindow(&clr, agents, inputs, wr, fmt.Sprintf("%s window %d", lc.name, wr.Window))))
				ls.agentWindows += len(agents)
				ls.windowMs = append(ls.windowMs, ms(wr.Duration))
				if wr.Degenerate {
					ls.degenerate++
				} else {
					ls.protocolWindows++
				}
				t = time.Now()
				_, err = again.Append(wr.Window, wr.Price, ledger.RecordsFromTrades(wr.Trades))
				ls.appendUs = append(ls.appendUs, us(time.Since(t)))
				if err != nil {
					return nil, err
				}
			}
			// One latency sample per coalition-day: its trading wall-clock per
			// window. Six coalitions share two cores, so single windows
			// mostly measure the scheduler; and a window's cost grows with
			// its coalition, which churn walks somewhere else under every
			// seed — scaled to the nominal coalition, the sample depends on
			// the code, not on where the walk went.
			if n := len(lc.results); n > 0 {
				ls.latency = append(ls.latency, ms(lc.trading)/float64(n)*float64(sz.liveHomesPerBlock)/float64(len(agents)))
			}
			// The coalition's chain must verify, and be the chain its window
			// results hash to.
			t := time.Now()
			verr := lc.ledger.Verify()
			ls.verifyMs = append(ls.verifyMs, ms(time.Since(t)))
			r.check(verr == nil && ledger.HashString(again.Head().Hash) == lc.head,
				"coalition %s ledger: verify %v, head %s, results hash to %s", lc.name, verr, lc.head, ledger.HashString(again.Head().Hash))
		}
	}
	return ls, nil
}

// liveReplay is what reading the closed WAL back yields.
type liveReplay struct {
	walBytes       int64
	replay, resume time.Duration
}

// replayLive reads the closed WAL back — the store's read path — and holds
// it to the run it came from: the newest checkpoint carries the run's
// positions and chain heads, every persisted chain rebuilds to the head the
// run reported, and Resume resumes after the last completed epoch.
func replayLive(r *report, tr *tracer, root int, path string, epochs []liveEpoch, final []pem.AgentPosition, stopped bool) (*liveReplay, error) {
	last := epochs[len(epochs)-1]
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	rp := &liveReplay{walBytes: info.Size()}

	id := tr.begin(root, "store", "OpenWAL", -1)
	t := time.Now()
	replayed, err := pem.OpenWAL(path)
	rp.replay = time.Since(t)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	cp, ok, err := replayed.LastCheckpoint()
	r.check(err == nil && ok && cp.Epoch == last.epoch, "replayed checkpoint: ok=%v epoch %d, want %d (%v)", ok, cp.Epoch, last.epoch, err)
	checkResumePoint(r, cp, final, last, stopped)
	for _, le := range epochs {
		for _, lc := range le.coalitions {
			if lc.folded || lc.err != nil {
				continue
			}
			blocks, err := replayed.Blocks(lc.name)
			var head string
			if err == nil {
				var led *pem.Ledger
				if led, err = pem.LedgerFromBlocks(blocks); err == nil {
					head = ledger.HashString(led.Head().Hash)
				}
			}
			r.check(err == nil && head == lc.head, "replayed chain %s: head %s, run had %s (%v)", lc.name, head, lc.head, err)
		}
	}
	if err := replayed.Close(); err != nil {
		return nil, err
	}

	id = tr.begin(root, "store", "Resume", -1)
	t = time.Now()
	resumed, err := pem.Resume(path)
	rp.resume = time.Since(t)
	tr.end(id)
	r.check(err == nil && resumed.ResumedEpoch() == last.epoch, "Resume: %v", err)
	if err == nil {
		err = resumed.Close()
	}
	return rp, err
}

// checkResumePoint holds the WAL's newest checkpoint against the run it
// came from: every agent's cumulative flows and the last epoch's chain
// heads must equal the uninterrupted run's. (A time-limited run has already
// applied the next boundary's churn to its book — exits freeze, joins open
// empty positions — so only a full run is compared on exit state and roster
// size too.)
func checkResumePoint(r *report, cp pem.Checkpoint, final []pem.AgentPosition, last liveEpoch, stopped bool) {
	byID := make(map[string]pem.AgentPosition, len(final))
	for _, p := range final {
		byID[p.ID] = p
	}
	ok := stopped || len(cp.Positions) == len(final)
	for _, p := range cp.Positions {
		q, found := byID[p.ID]
		if !found || q.Flows != p.Flows || q.JoinEpoch != p.JoinEpoch || (!stopped && q != p) {
			ok = false
		}
	}
	r.check(ok, "checkpoint positions differ from the run's")

	want := make(map[string]string)
	for _, lc := range last.coalitions {
		if lc.head != "" {
			want[lc.name] = lc.head
		}
	}
	ok = len(cp.ChainHeads) == len(want)
	for _, h := range cp.ChainHeads {
		if want[h.Scope] != h.Head {
			ok = false
		}
	}
	r.check(ok, "checkpoint chain heads differ from the run's")
}

// headsDigest folds every coalition's final ledger head, in scope order,
// into one string for the exact-repeat guard.
func headsDigest(epochs []liveEpoch) string {
	var heads []string
	for _, le := range epochs {
		for _, lc := range le.coalitions {
			if lc.head != "" {
				heads = append(heads, lc.name+"="+lc.head)
			}
		}
	}
	sort.Strings(heads)
	sum := sha256.Sum256([]byte(strings.Join(heads, "\n")))
	return fmt.Sprintf("%d:%s", len(heads), ledger.HashString(sum))
}
