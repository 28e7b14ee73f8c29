package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"time"

	"github.com/pem-go/pem"
	"github.com/pem-go/pem/internal/market"
)

// fleet.tiered: a fleet of two-home coalitions, all below the private-market
// floor, so every coalition folds to the grid-tariff path — no crypto, no
// transport. On-demand day synthesis, the streaming supervisor and tiered
// settlement do all the work. One closed-loop unit is one fleet day; day d
// of a run is seeded seed+d.

// fleetSampled is one coalition kept for the oracle re-computation.
type fleetSampled struct {
	name     string
	members  []int
	residual pem.CoalitionResidual
}

// runFleet runs the workload; tr is nil on the untraced run.
func runFleet(ctx context.Context, sz sizes, seed int64, budget time.Duration, tr *tracer) (*report, []float64, error) {
	r := newReport("fleet.tiered", seed, tr != nil, budget == 0)
	root := tr.begin(0, "bench", "run", -1)
	windows := sz.dayWindows
	homes := 2 * sz.fleetCoalitions
	// Every coalition folds to plaintext, so concurrency only has to cover
	// scheduling; the library default (all at once) would park one goroutine
	// per coalition.
	maxConc := 4 * runtime.GOMAXPROCS(0)

	var (
		setups, latency, generateMs, partitionMs []float64
		settleTiersMs, clearUs, inputsUs         []float64
		measured, delivering                     time.Duration
		days, foldedTotal                        int
	)
	for d := 0; ; d++ {
		if budget > 0 && measured >= budget || budget == 0 && d >= sz.fleetDays {
			break
		}
		daySeed := seed + int64(d)
		day := tr.begin(root, "bench", "day", -1)

		// Set-up: fleet statics synthesis + partition (NewGrid is the
		// partitioner and little else).
		t := time.Now()
		id := tr.begin(day, "dataset", "generate_fleet", -1)
		trace, err := pem.GenerateFleet(pem.FleetConfig{
			Coalitions: sz.fleetCoalitions, HomesPerCoalition: 2,
			Windows: windows, Seed: daySeed, StartHour: sz.startHour, OnDemand: true,
		})
		generateMs = append(generateMs, ms(tr.end(id)))
		if err != nil {
			return nil, nil, err
		}
		id = tr.begin(day, "grid", "new_grid", -1)
		g, err := pem.NewGrid(pem.GridConfig{
			Market:                  pem.Config{Seed: &daySeed},
			Coalitions:              sz.fleetCoalitions,
			Partition:               pem.PartitionFixed,
			MaxConcurrentCoalitions: maxConc,
			Tiers:                   sz.tiers,
		}, trace)
		partitionMs = append(partitionMs, ms(tr.end(id)))
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t).Seconds())

		var (
			streamed, folded     int
			importKWh, exportKWh float64
			sampled              []fleetSampled
			residuals            = make([]pem.CoalitionResidual, 0, sz.fleetCoalitions)
		)
		id = tr.begin(day, "grid", "stream", -1)
		start := time.Now()
		chunkStart := start
		res, err := g.Stream(ctx, func(cr *pem.CoalitionRun) error {
			if cr.Folded {
				folded++
			}
			importKWh += cr.Residual.ImportKWh
			exportKWh += cr.Residual.ExportKWh
			if streamed%sz.fleetSample == 0 {
				sampled = append(sampled, fleetSampled{cr.Name, cr.Members, cr.Residual})
			}
			residuals = append(residuals, cr.Residual)
			streamed++
			// One latency sample per chunk of coalitions delivered: the
			// chunk's wall-clock scaled to the whole fleet, per window.
			// (fleetChunk divides fleetCoalitions, so the last chunk ends
			// with the last delivery.)
			if streamed%sz.fleetChunk == 0 {
				now := time.Now()
				perFleet := float64(sz.fleetCoalitions) / float64(sz.fleetChunk)
				latency = append(latency, ms(now.Sub(chunkStart))*perFleet/float64(windows))
				chunkStart = now
			}
			return nil
		})
		dur := time.Since(start)
		tr.end(id)
		if err != nil {
			return nil, nil, err
		}
		tr.end(day)
		measured += dur
		days++
		foldedTotal += folded
		// Up to the last delivery the grid streams coalitions; after it, it
		// folds the tier settlement.
		delivering += chunkStart.Sub(start)

		// Checks, outside the measured interval. Every coalition counts as
		// one attempted operation: it must be delivered, folded.
		r.Attempted += sz.fleetCoalitions
		if bad := sz.fleetCoalitions - folded; bad != 0 || streamed != sz.fleetCoalitions {
			r.Failed += max(bad, 1)
			r.Failures = append(r.Failures, fmt.Sprintf("day %d: streamed %d coalitions, %d folded, want %d", d, streamed, folded, sz.fleetCoalitions))
		}
		r.check(res.Tiers != nil && res.Settlement != nil, "day %d: no tiered settlement", d)
		if res.Tiers != nil && res.Settlement != nil {
			// Tier conservation: what the coalitions import is either matched
			// inside some tier or drawn from the grid; likewise exports.
			gotImport := res.Tiers.MatchedKWh + res.Settlement.Fleet.ImportKWh
			gotExport := res.Tiers.MatchedKWh + res.Settlement.Fleet.ExportKWh
			r.check(closeTo(gotImport, importKWh) && closeTo(gotExport, exportKWh),
				"day %d tier conservation: import %v vs %v, export %v vs %v", d, gotImport, importKWh, gotExport, exportKWh)
		}
		// Oracle: recompute the sampled coalitions' grid-only residuals.
		var base market.Clearing
		for _, s := range sampled {
			sub, err := trace.Select(s.members)
			if err != nil {
				return nil, nil, err
			}
			agents := sub.Agents()
			var imp, exp float64
			for w := 0; w < windows; w++ {
				t := time.Now()
				inputs, err := sub.WindowInputs(w)
				inputsUs = append(inputsUs, us(time.Since(t)))
				if err != nil {
					return nil, nil, err
				}
				t = time.Now()
				err = market.BaselineClearInto(&base, agents, inputs, pem.DefaultParams())
				clearUs = append(clearUs, us(time.Since(t)))
				if err != nil {
					return nil, nil, err
				}
				i, e := market.ResidualFromClearing(&base)
				imp += i
				exp += e
			}
			r.check(closeTo(imp, s.residual.ImportKWh) && closeTo(exp, s.residual.ExportKWh),
				"day %d coalition %s residual: %v/%v, oracle %v/%v", d, s.name, s.residual.ImportKWh, s.residual.ExportKWh, imp, exp)
		}
		if tr != nil {
			// The tier fold on its own, over the residuals the sink saw.
			id = tr.begin(root, "market", "settle_tiers", -1)
			ts, err := market.SettleTiers(tierTree(sz.tiers, residuals), pem.DefaultParams())
			settleTiersMs = append(settleTiersMs, ms(tr.end(id)))
			r.check(err == nil && res.Tiers != nil && ts.MatchedKWh == res.Tiers.MatchedKWh,
				"day %d: re-settled tiers disagree with the run (%v)", d, err)
		}
		if res.Tiers != nil {
			r.Exact[fmt.Sprintf("day%d_matched_kwh", d)] = strconv.FormatFloat(res.Tiers.MatchedKWh, 'g', -1, 64)
		}
	}
	tr.end(root)

	r.Samples = len(latency)
	r.set("window_ms_p50", quantile(latency, 0.50))
	r.set("window_ms_p90", quantile(latency, 0.90))
	r.set("agent_windows_per_s", float64(days*homes*windows)/measured.Seconds())
	r.set("wire_bytes_per_window", 0)
	r.set("setup_s", median(setups))
	r.Extra["days"] = float64(days)
	r.Exact["days"] = strconv.Itoa(days)
	if tr != nil {
		r.set("trace.window_ms_p50", quantile(latency, 0.50))
		r.set("dataset.generate_ms", median(generateMs))
		r.set("dataset.window_inputs_us", median(inputsUs))
		r.set("market.clear_us", median(clearUs))
		r.set("market.settle_tiers_ms", median(settleTiersMs))
		r.set("grid.partition_ms", median(partitionMs))
		r.set("grid.trading_s", delivering.Seconds())
		r.set("grid.other_s", (measured - delivering).Seconds())
		r.set("grid.folded_coalitions", float64(foldedTotal))
	}
	return r, latency, nil
}

func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// tierTree groups residuals, in partition order, under the fanout schedule
// the way GridConfig.Tiers documents it: fanout[0] consecutive coalitions
// per district, fanout[1] districts per region, and so on; the top level's
// nodes hang off the grid boundary.
func tierTree(fanout []int, residuals []pem.CoalitionResidual) *market.TierNode {
	var level []*market.TierNode
	for i := 0; i < len(residuals); i += fanout[0] {
		n := &market.TierNode{Name: fmt.Sprintf("L1-%d", i/fanout[0])}
		n.Residuals = residuals[i:min(i+fanout[0], len(residuals))]
		level = append(level, n)
	}
	for l := 1; l < len(fanout); l++ {
		var up []*market.TierNode
		for i := 0; i < len(level); i += fanout[l] {
			n := &market.TierNode{Name: fmt.Sprintf("L%d-%d", l+1, i/fanout[l])}
			n.Children = level[i:min(i+fanout[l], len(level))]
			up = append(up, n)
		}
		level = up
	}
	return &market.TierNode{Name: "grid", Children: level}
}
