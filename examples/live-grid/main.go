// Live grid: a multi-day simulation over a churning fleet. The day is split
// into epochs; at each epoch boundary prosumers join, depart (planned) or
// fail (crash-style), the partitioner re-partitions the surviving-plus-new
// roster, and every coalition re-keys — a fresh engine, key directory and
// transport scope per (epoch, coalition), Paillier keys generated for the
// joiners only — over the same shared crypto pool, bus and key ring, so
// churn costs a bounded re-key, not a restart.
//
// Settlement carries across epochs per agent: an agent's cumulative
// position survives re-partitioning (it is keyed by ID, not coalition), and
// an agent that leaves is settled at the grid tariff and frozen at its exit
// epoch. The demo prints the churn schedule, each epoch's re-key cost next
// to its trading throughput, and the frozen position of one departed agent.
//
// Run with: go run ./examples/live-grid
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/pem-go/pem"
)

func main() {
	seed := int64(2026)
	lg, err := pem.NewLiveGrid(pem.LiveGridConfig{
		Market:     pem.Config{KeyBits: 512, Seed: &seed},
		Coalitions: 3,
		Partition:  pem.PartitionBalanced,
		Epochs:     4,
		Churn: pem.ChurnConfig{
			JoinRate:   0.25, // the fleet grows…
			DepartRate: 0.15, // …while some prosumers leave on notice…
			FailRate:   0.10, // …and some just vanish.
		},
	}, pem.FleetConfig{
		Coalitions:        3,
		HomesPerCoalition: 4,
		Windows:           3,
		Seed:              seed,
		StartHour:         11,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The evolution is fixed at construction: inspect the churn schedule
	// before any protocol runs.
	fmt.Println("churn schedule:")
	for _, ev := range lg.Events() {
		fmt.Printf("  epoch %d: %-6s %s\n", ev.Epoch, ev.Kind, ev.ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	res, err := lg.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nepochs (re-key = the slowest coalition's key provisioning, trade = the rest of the epoch):")
	for _, er := range res.Epochs {
		wps := 0.0
		if er.Trading > 0 {
			wps = float64(er.Windows) / er.Trading.Seconds()
		}
		fmt.Printf("  epoch %d: %2d agents in %d markets — re-key %6s, trade %6s (%.1f windows/sec), grid net %+.0fc\n",
			er.Epoch, er.Agents, len(er.Coalitions),
			er.Rekey.Round(time.Millisecond), er.Trading.Round(time.Millisecond),
			wps, er.Settlement.Fleet.NetCost)
	}
	fmt.Printf("total: %d windows; re-key %s vs trading %s — %.1f windows/sec steady state\n",
		res.Windows, res.Rekey.Round(time.Millisecond), res.Trading.Round(time.Millisecond), res.WindowsPerSec)

	// Cross-epoch settlement: positions survive re-partitioning, leavers
	// freeze at their exit epoch, and the books balance fleet-wide.
	var frozen *pem.AgentPosition
	for i, p := range res.Positions {
		if !p.Active() {
			frozen = &res.Positions[i]
			break
		}
	}
	if frozen != nil {
		fmt.Printf("\n%s left at epoch %d (%s): bought %.3f kWh / sold %.3f kWh in the PEM, net %+.0fc — frozen\n",
			frozen.ID, frozen.ExitEpoch, frozen.ExitKind,
			frozen.Flows.BuyKWh, frozen.Flows.SellKWh, frozen.NetCents())
	}
	fmt.Printf("conservation across %d positions: energy %.3g kWh, payments %.3g cents\n",
		len(res.Positions), res.EnergyImbalanceKWh, res.PaymentImbalanceCents)
}
