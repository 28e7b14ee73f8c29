package grid

import (
	"context"
	"sort"
	"testing"
	"time"

	"github.com/pem-go/pem/internal/core"
	"github.com/pem-go/pem/internal/dataset"
	"github.com/pem-go/pem/internal/market"
	"github.com/pem-go/pem/internal/paillier"
	"github.com/pem-go/pem/internal/transport"
)

// TestLiveKeyContinuity pins the key lifecycle of a live grid over five
// churned epochs: a home is keyed once and keeps that key for as long as it
// stays, a joiner's key was never seen before, and a home that departs or
// fails is gone from every later epoch and from the ring.
func TestLiveKeyContinuity(t *testing.T) {
	mixes := map[string]dataset.ChurnConfig{
		"join-only":   {JoinRate: 0.4},
		"depart-only": {DepartRate: 0.25},
		"fail-heavy":  {FailRate: 0.3, JoinRate: 0.1},
		"mixed":       {JoinRate: 0.25, DepartRate: 0.2, FailRate: 0.15},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	for name, churn := range mixes {
		t.Run(name, func(t *testing.T) {
			evo := testEvolution(t, 5, churn)
			cfg := testLiveConfig(61, 0)
			book, err := market.NewPositionBook(cfg.Grid.params())
			if err != nil {
				t.Fatal(err)
			}
			infra := core.Resources{Bus: transport.NewBus(nil), Workers: paillier.NewWorkers(0), Keys: core.NewKeyRing(cfg.Grid.Engine)}

			byHome := make(map[string][32]byte) // every home ever keyed
			everSeen := make(map[[32]byte]string)
			gone := make(map[string]int) // home -> epoch it left at
			var kept, joined int
			for e := range evo.Epochs {
				ef := &evo.Epochs[e]
				if err := applyBoundary(book, infra.Keys, ef); err != nil {
					t.Fatal(err)
				}
				for _, id := range append(append([]string(nil), ef.Departed...), ef.Failed...) {
					gone[id] = e
					if infra.Keys.Holds(id) {
						t.Errorf("epoch %d: %s left but the ring still holds its key", e, id)
					}
				}
				er, err := runEpoch(ctx, cfg, infra, ef)
				if err != nil {
					t.Fatalf("epoch %d: %v", e, err)
				}
				for _, cr := range er.Coalitions {
					for _, fp := range cr.Keys {
						if at, left := gone[fp.Party]; left {
							t.Errorf("epoch %d %s: %s trades although it left at epoch %d", e, cr.Name, fp.Party, at)
						}
						if !infra.Keys.Holds(fp.Party) {
							t.Errorf("epoch %d %s: %s is keyed but not in the ring", e, cr.Name, fp.Party)
						}
						if prev, ok := byHome[fp.Party]; ok {
							kept++
							if prev != fp.Digest {
								t.Errorf("epoch %d %s: survivor %s changed key", e, cr.Name, fp.Party)
							}
							continue
						}
						if e > 0 {
							joined++
						}
						if other, dup := everSeen[fp.Digest]; dup {
							t.Errorf("epoch %d %s: %s was keyed with %s's key", e, cr.Name, fp.Party, other)
						}
						byHome[fp.Party], everSeen[fp.Digest] = fp.Digest, fp.Party
					}
				}
			}
			if kept == 0 {
				t.Error("no home survived an epoch boundary: the continuity check is vacuous")
			}
			if churn.JoinRate > 0 && joined == 0 {
				t.Error("no joiner was keyed: the freshness check is vacuous")
			}
			if (churn.DepartRate > 0 || churn.FailRate > 0) && len(gone) == 0 {
				t.Error("no home left: the eviction check is vacuous")
			}
		})
	}
}

// TestLiveRekeyOfSurvivorsIsCheap: with nobody joining, an epoch's re-key is
// look-ups — a few milliseconds at most — where the first epoch paid a key
// generation per home.
func TestLiveRekeyOfSurvivorsIsCheap(t *testing.T) {
	evo := testEvolution(t, 4, dataset.ChurnConfig{})
	cfg := testLiveConfig(67, 1)
	cfg.Grid.Engine.KeyBits = 512
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	res, err := RunLive(ctx, cfg, evo)
	if err != nil {
		t.Fatal(err)
	}
	var first, later []time.Duration
	for e, er := range res.Epochs {
		for _, cr := range er.Coalitions {
			if cr.Err != nil {
				continue
			}
			if e == 0 {
				first = append(first, cr.Rekey)
			} else {
				later = append(later, cr.Rekey)
			}
		}
	}
	median := func(d []time.Duration) time.Duration {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		return d[len(d)/2]
	}
	if len(first) == 0 || len(later) == 0 {
		t.Fatalf("fixture ran %d + %d coalitions", len(first), len(later))
	}
	if m := median(later); m > 5*time.Millisecond || m >= median(first) {
		t.Errorf("all-survivor re-key takes %v (median), first epoch's key generation %v", m, median(first))
	}
}

// TestLiveKeysIndependentOfSchedule: a home's key is a function of the
// simulation seed and its ID, so the same seed gives the same fingerprints
// whatever the coalition concurrency — and so whichever epoch or order a
// home happened to be keyed in.
func TestLiveKeysIndependentOfSchedule(t *testing.T) {
	evo := testEvolution(t, 4, dataset.ChurnConfig{JoinRate: 0.25, DepartRate: 0.15, FailRate: 0.1})
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	var base *LiveResult
	for _, conc := range []int{1, 3} {
		res, err := RunLive(ctx, testLiveConfig(71, conc), evo)
		if err != nil {
			t.Fatalf("concurrency %d: %v", conc, err)
		}
		if base == nil {
			base = res
			continue
		}
		for e := range base.Epochs {
			for i := range base.Epochs[e].Coalitions {
				a, b := base.Epochs[e].Coalitions[i], res.Epochs[e].Coalitions[i]
				if len(a.Keys) != len(b.Keys) {
					t.Fatalf("epoch %d %s: %d vs %d fingerprints", e, a.Name, len(a.Keys), len(b.Keys))
				}
				for k := range a.Keys {
					if a.Keys[k] != b.Keys[k] {
						t.Errorf("epoch %d %s: %s keyed differently at concurrency %d", e, a.Name, a.Keys[k].Party, conc)
					}
				}
			}
		}
	}
}
