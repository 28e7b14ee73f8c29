package pem_test

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/pem-go/pem"
)

// tempWAL opens a fresh WAL in the test's temporary directory, closed when
// the test ends.
func tempWAL(t *testing.T) *pem.WALStore {
	t.Helper()
	w, err := pem.OpenWAL(filepath.Join(t.TempDir(), "test.wal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// storeLiveConfig is the durable variant of testLiveGrid's fixture: same
// seeded market, coalitions and churn, with a Store attached.
func storeLiveConfig(st pem.Store) (pem.LiveGridConfig, pem.FleetConfig) {
	return pem.LiveGridConfig{
			Market:                  pem.Config{KeyBits: 256, Seed: seedPtr(41)},
			Coalitions:              2,
			Partition:               pem.PartitionBalanced,
			MaxConcurrentCoalitions: 0,
			Epochs:                  3,
			Churn:                   pem.ChurnConfig{JoinRate: 0.25, DepartRate: 0.15, FailRate: 0.1},
			Store:                   st,
		}, pem.FleetConfig{
			Coalitions:        2,
			HomesPerCoalition: 4,
			Windows:           2,
			Seed:              7,
		}
}

// TestMarketStorePersistsLedger: a durable market writes its provisioning
// fingerprints and every settlement block through the store as windows
// clear, and the persisted chain survives a reopen, rebuilds through
// LedgerFromBlocks, and matches the in-memory ledger block for block.
func TestMarketStorePersistsLedger(t *testing.T) {
	path := filepath.Join(t.TempDir(), "market.wal")
	wal, err := pem.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	agents := []pem.Agent{
		{ID: "solar-roof", K: 85, Epsilon: 0.9},
		{ID: "townhouse", K: 75, Epsilon: 0.85},
		{ID: "ev-garage", K: 95, Epsilon: 0.9},
	}
	m, err := pem.NewMarket(pem.Config{KeyBits: 256, Seed: seedPtr(8), Store: wal}, agents)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	inputs := [][]pem.WindowInput{
		{{Generation: 0.40, Load: 0.10}, {Generation: 0, Load: 0.25}, {Generation: 0.05, Load: 0.30}},
		{{Generation: 0.10, Load: 0.20}, {Generation: 0.35, Load: 0.05}, {Generation: 0, Load: 0.15}},
	}
	if _, err := m.RunWindows(ctx, inputs); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := pem.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if rec := reopened.Recovered(); rec.Truncated {
		t.Fatalf("clean market segment reported truncation: %+v", rec)
	}
	blocks, err := reopened.Blocks("market")
	if err != nil {
		t.Fatal(err)
	}
	if want := m.Ledger().Len(); len(blocks) != want {
		t.Fatalf("persisted %d blocks, ledger has %d", len(blocks), want)
	}
	rebuilt, err := pem.LedgerFromBlocks(blocks)
	if err != nil {
		t.Fatalf("persisted chain does not rebuild: %v", err)
	}
	for i := range blocks {
		live, err := m.Ledger().Block(i)
		if err != nil {
			t.Fatal(err)
		}
		if blocks[i].Hash != live.Hash {
			t.Fatalf("block %d hash diverged between store and ledger", i)
		}
	}
	if rebuilt.Head().Hash != m.Ledger().Head().Hash {
		t.Fatal("rebuilt chain head diverged from the live ledger")
	}
	keys, err := reopened.KeyMaterial()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(agents) {
		t.Fatalf("%d key records for %d agents", len(keys), len(agents))
	}
	parties := make(map[string]bool, len(keys))
	for _, k := range keys {
		if k.Scope != "market" {
			t.Errorf("key record in scope %s", k.Scope)
		}
		parties[k.Party] = true
	}
	for _, a := range agents {
		if !parties[a.ID] {
			t.Errorf("no key record for %s", a.ID)
		}
	}
}

// crashStore wraps a Store through the public interface and fails the run
// right after the killAt-th block append lands, simulating a process that
// died with its WAL mid-epoch.
type crashStore struct {
	pem.Store
	appends int
	killAt  int
}

var errCrashed = errors.New("injected crash")

func (c *crashStore) AppendBlock(scope string, blk pem.Block) error {
	if err := c.Store.AppendBlock(scope, blk); err != nil {
		return err
	}
	c.appends++
	if c.appends == c.killAt {
		return errCrashed
	}
	return nil
}

func (c *crashStore) PutCheckpoint(cp pem.Checkpoint) error {
	return c.Store.PutCheckpoint(cp)
}

// TestLiveGridResumeAfterCrash is the end-to-end crash drill on the public
// surface: a durable live run is killed mid-epoch, its WAL tail is sheared
// by a few extra bytes (the torn final write), and pem.Resume must rebuild
// the simulation from the file alone and finish with positions bit-identical
// to an uninterrupted reference run.
func TestLiveGridResumeAfterCrash(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 600*time.Second)
	defer cancel()

	// Reference: the same simulation, uninterrupted, with a counting store
	// so the kill point can be seeded inside the checkpointed region.
	counter := &crashStore{Store: tempWAL(t)}
	lcfg, fleet := storeLiveConfig(counter)
	ref, err := mustLiveGrid(t, lcfg, fleet).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if counter.appends < 4 {
		t.Fatalf("fixture too small: %d block appends", counter.appends)
	}

	// Crash: kill after a seeded append in the back half of the run, then
	// shear a few bytes off the segment tail to model the torn last write.
	rng := rand.New(rand.NewSource(99))
	killAt := counter.appends/2 + 1 + rng.Intn(counter.appends/2-1)
	wal := tempWAL(t)
	kcfg, kfleet := storeLiveConfig(&crashStore{Store: wal, killAt: killAt})
	if _, err := mustLiveGrid(t, kcfg, kfleet).Run(ctx); !errors.Is(err, errCrashed) {
		t.Fatalf("kill after append %d did not surface: %v", killAt, err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	path := wal.Path()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	shear := rng.Intn(41)
	if err := os.WriteFile(path, raw[:len(raw)-shear], 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume from the file alone: no config, no fleet — the checkpoint
	// carries both. The resumed run finishes the simulation.
	lg, err := pem.Resume(path)
	if err != nil {
		t.Fatalf("resume (shear %d): %v", shear, err)
	}
	defer lg.Close()
	if lg.ResumedEpoch() < 0 {
		t.Fatal("resumed grid does not report a resume epoch")
	}
	res, err := lg.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Positions) != len(ref.Positions) {
		t.Fatalf("position counts diverge: %d vs %d", len(res.Positions), len(ref.Positions))
	}
	for i := range ref.Positions {
		if res.Positions[i] != ref.Positions[i] {
			t.Fatalf("position %s diverged after crash+resume:\n%+v\nvs\n%+v",
				ref.Positions[i].ID, res.Positions[i], ref.Positions[i])
		}
	}
	if res.EnergyImbalanceKWh != ref.EnergyImbalanceKWh ||
		res.PaymentImbalanceCents != ref.PaymentImbalanceCents {
		t.Error("conservation figures diverged after crash+resume")
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
}

func mustLiveGrid(t *testing.T, cfg pem.LiveGridConfig, fleet pem.FleetConfig) *pem.LiveGrid {
	t.Helper()
	lg, err := pem.NewLiveGrid(cfg, fleet)
	if err != nil {
		t.Fatal(err)
	}
	return lg
}

// TestResumeRejects: Resume fails typed and loud — a WAL with no completed
// epoch has nothing to resume from, and a file that is not a WAL at all is
// never silently reinitialized.
func TestResumeRejects(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.wal")
	w, err := pem.OpenWAL(empty)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := pem.Resume(empty); err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Errorf("resume of checkpoint-less WAL = %v", err)
	}

	foreign := filepath.Join(t.TempDir(), "notes.txt")
	if err := os.WriteFile(foreign, []byte("definitely not a WAL segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := pem.Resume(foreign); !errors.Is(err, pem.ErrNotWAL) {
		t.Errorf("resume of foreign file = %v", err)
	}
}
