package grid

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/pem-go/pem/internal/dataset"
	"github.com/pem-go/pem/internal/ledger"
	"github.com/pem-go/pem/internal/store"
)

// countingStore wraps a Store to observe the block-append stream: the total
// append count and the count at the moment the first checkpoint committed.
// The live grid writes from a single goroutine, so plain fields suffice.
type countingStore struct {
	store.Store
	appends       int
	atFirstCkpt   int
	haveFirstCkpt bool
}

func (c *countingStore) AppendBlock(scope string, blk ledger.Block) error {
	if err := c.Store.AppendBlock(scope, blk); err != nil {
		return err
	}
	c.appends++
	return nil
}

func (c *countingStore) PutCheckpoint(cp store.Checkpoint) error {
	if err := c.Store.PutCheckpoint(cp); err != nil {
		return err
	}
	if !c.haveFirstCkpt {
		c.haveFirstCkpt = true
		c.atFirstCkpt = c.appends
	}
	return nil
}

// errKilled is the injected crash.
var errKilled = errors.New("injected crash")

// killSwitch wraps a Store and fails the run right after the killAt-th
// block append lands — the write hit the OS, the process died before the
// next one — which is exactly the window-granularity crash the WAL's
// recovery contract is specified against.
type killSwitch struct {
	store.Store
	appends int
	killAt  int
}

func (k *killSwitch) AppendBlock(scope string, blk ledger.Block) error {
	if err := k.Store.AppendBlock(scope, blk); err != nil {
		return err
	}
	k.appends++
	if k.appends == k.killAt {
		return errKilled
	}
	return nil
}

// storeDigest is everything durable a run leaves behind, in comparable
// form; chains are verified (FromBlocks) as they are read.
type storeDigest struct {
	scopes     []string
	heads      map[string]string
	aggregates []store.Aggregate
	keys       []store.KeyRecord
	positions  string
	ckptEpoch  int
}

func digestStore(t *testing.T, st store.Store) storeDigest {
	t.Helper()
	d := storeDigest{heads: make(map[string]string)}
	var err error
	if d.scopes, err = st.Scopes(); err != nil {
		t.Fatal(err)
	}
	for _, s := range d.scopes {
		blocks, err := st.Blocks(s)
		if err != nil {
			t.Fatal(err)
		}
		l, err := ledger.FromBlocks(blocks)
		if err != nil {
			t.Fatalf("scope %s: recovered chain does not verify: %v", s, err)
		}
		d.heads[s] = ledger.HashString(l.Head().Hash)
	}
	if d.aggregates, err = st.Aggregates(); err != nil {
		t.Fatal(err)
	}
	if d.keys, err = st.KeyMaterial(); err != nil {
		t.Fatal(err)
	}
	ps, err := st.Positions()
	if err != nil {
		t.Fatal(err)
	}
	d.positions = fmt.Sprintf("%+v", ps)
	cp, ok, err := st.LastCheckpoint()
	if err != nil || !ok {
		t.Fatalf("no checkpoint: ok=%v err=%v", ok, err)
	}
	d.ckptEpoch = cp.Epoch
	return d
}

// TestLiveStorePersistsRun: a durable live run leaves a complete, verified
// record behind — every coalition's chain and aggregate (folded included),
// per-(epoch, coalition) key material for every member, the final position
// book, and a checkpoint for the last epoch carrying the caller's config
// blob with its hash.
func TestLiveStorePersistsRun(t *testing.T) {
	evo := testEvolution(t, 3, dataset.ChurnConfig{JoinRate: 0.2, DepartRate: 0.15})
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()

	st := store.NewMem()
	cfg := testLiveConfig(45, 0)
	cfg.Grid.Store = st
	cfg.CheckpointMeta = []byte(`{"run":"store-test"}`)
	res, err := RunLive(ctx, cfg, evo)
	if err != nil {
		t.Fatal(err)
	}

	aggs, err := st.Aggregates()
	if err != nil {
		t.Fatal(err)
	}
	byScope := make(map[string]store.Aggregate, len(aggs))
	for _, a := range aggs {
		byScope[a.Scope] = a
	}
	keys, err := st.KeyMaterial()
	if err != nil {
		t.Fatal(err)
	}
	keyCount := make(map[string]int)
	for _, k := range keys {
		keyCount[k.Scope]++
		if len(k.Fingerprint) != sha256.Size {
			t.Errorf("%s/%s: fingerprint is %d bytes", k.Scope, k.Party, len(k.Fingerprint))
		}
	}
	for _, er := range res.Epochs {
		for i := range er.Coalitions {
			cr := &er.Coalitions[i]
			agg, ok := byScope[cr.Name]
			if !ok {
				t.Fatalf("%s: no aggregate persisted", cr.Name)
			}
			if agg.Folded != cr.Folded || agg.Windows != cr.Windows ||
				agg.ImportKWh != cr.Residual.ImportKWh || agg.ExportKWh != cr.Residual.ExportKWh ||
				agg.ChainHead != cr.ChainHead {
				t.Errorf("%s: aggregate diverged from run: %+v vs %+v", cr.Name, agg, cr)
			}
			blocks, err := st.Blocks(cr.Name)
			if err != nil {
				t.Fatal(err)
			}
			if cr.Folded {
				if len(blocks) != 0 {
					t.Errorf("folded %s persisted %d blocks", cr.Name, len(blocks))
				}
				continue
			}
			l, err := ledger.FromBlocks(blocks)
			if err != nil {
				t.Fatalf("%s: persisted chain does not verify: %v", cr.Name, err)
			}
			if head := ledger.HashString(l.Head().Hash); head != cr.ChainHead {
				t.Errorf("%s: persisted head %s, run head %s", cr.Name, head, cr.ChainHead)
			}
			if keyCount[cr.Name] != len(cr.IDs) {
				t.Errorf("%s: %d key records for %d members", cr.Name, keyCount[cr.Name], len(cr.IDs))
			}
		}
	}

	ps, err := st.Positions()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ps, res.Positions) {
		t.Error("persisted positions diverged from the run's")
	}
	cp, ok, err := st.LastCheckpoint()
	if err != nil || !ok {
		t.Fatalf("no checkpoint: ok=%v err=%v", ok, err)
	}
	if cp.Epoch != len(res.Epochs)-1 {
		t.Errorf("checkpoint at epoch %d, want %d", cp.Epoch, len(res.Epochs)-1)
	}
	if string(cp.Config) != `{"run":"store-test"}` {
		t.Errorf("checkpoint config blob diverged: %q", cp.Config)
	}
	sum := sha256.Sum256(cp.Config)
	if cp.ConfigHash != hex.EncodeToString(sum[:]) {
		t.Errorf("checkpoint config hash diverged: %s", cp.ConfigHash)
	}
	if !reflect.DeepEqual(cp.Positions, res.Positions) {
		t.Error("checkpoint positions diverged from the run's")
	}
}

// TestLiveCrashResumeBitIdentical is the crash-recovery property test: for
// a table of seeds × churn mixes × backends, a run killed right after a
// seeded random block append — window granularity, mid-epoch — and resumed
// from its last durable checkpoint must converge to the same final state as
// the uninterrupted reference run, bit for bit: positions, conservation,
// every coalition chain (re-verified from the store) and its head, key
// material and aggregates.
func TestLiveCrashResumeBitIdentical(t *testing.T) {
	cases := []struct {
		name  string
		seed  int64
		churn dataset.ChurnConfig
	}{
		{"join-only", 47, dataset.ChurnConfig{JoinRate: 0.4}},
		{"depart-only", 48, dataset.ChurnConfig{DepartRate: 0.3}},
		{"fail-heavy", 49, dataset.ChurnConfig{FailRate: 0.35, JoinRate: 0.1}},
		{"mixed", 50, dataset.ChurnConfig{JoinRate: 0.25, DepartRate: 0.2, FailRate: 0.15}},
	}
	backends := map[string]func(t *testing.T) store.Store{
		"mem": func(*testing.T) store.Store { return store.NewMem() },
		"wal": func(t *testing.T) store.Store {
			w, err := store.OpenWAL(filepath.Join(t.TempDir(), "live.wal"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { w.Close() })
			return w
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 600*time.Second)
	defer cancel()

	for _, tc := range cases {
		for bname, open := range backends {
			t.Run(tc.name+"/"+bname, func(t *testing.T) {
				evo := testEvolution(t, 4, tc.churn)

				// Reference: the uninterrupted durable run, counting the
				// block-append stream so the kill point can be seeded inside
				// the checkpointed region.
				refStore := open(t)
				counter := &countingStore{Store: refStore}
				cfg := testLiveConfig(tc.seed, 0)
				cfg.Grid.Store = counter
				cfg.CheckpointMeta = []byte(`{"case":"` + tc.name + `"}`)
				ref, err := RunLive(ctx, cfg, evo)
				if err != nil {
					t.Fatal(err)
				}
				refDigest := digestStore(t, refStore)
				if !counter.haveFirstCkpt || counter.appends <= counter.atFirstCkpt+1 {
					t.Fatalf("fixture too small to kill mid-run: %d appends, first checkpoint at %d",
						counter.appends, counter.atFirstCkpt)
				}

				// Crash: kill right after a seeded random append past the
				// first checkpoint, so there is always a resume point and
				// always unfinished work.
				rng := rand.New(rand.NewSource(tc.seed))
				killAt := counter.atFirstCkpt + 1 + rng.Intn(counter.appends-counter.atFirstCkpt-1)
				crashStore := open(t)
				kcfg := testLiveConfig(tc.seed, 0)
				kcfg.Grid.Store = &killSwitch{Store: crashStore, killAt: killAt}
				kcfg.CheckpointMeta = cfg.CheckpointMeta
				if _, err := RunLive(ctx, kcfg, evo); !errors.Is(err, errKilled) {
					t.Fatalf("kill after append %d did not surface: %v", killAt, err)
				}

				// Resume from the last durable checkpoint and replay forward.
				cp, ok, err := crashStore.LastCheckpoint()
				if err != nil || !ok {
					t.Fatalf("no checkpoint after crash: ok=%v err=%v", ok, err)
				}
				if cp.Epoch >= len(evo.Epochs)-1 {
					t.Fatalf("crash left nothing to replay: checkpoint at epoch %d", cp.Epoch)
				}
				rcfg := testLiveConfig(tc.seed, 0)
				rcfg.Grid.Store = crashStore
				rcfg.CheckpointMeta = cfg.CheckpointMeta
				rcfg.Resume = &cp
				resumed, err := RunLive(ctx, rcfg, evo)
				if err != nil {
					t.Fatal(err)
				}

				// The resumed run's final state is bit-identical to the
				// reference's — in the result and in the store.
				if len(resumed.Positions) != len(ref.Positions) {
					t.Fatalf("position counts diverge: %d vs %d", len(resumed.Positions), len(ref.Positions))
				}
				for i := range ref.Positions {
					if resumed.Positions[i] != ref.Positions[i] {
						t.Fatalf("position %s diverged after resume:\n%+v\nvs\n%+v",
							ref.Positions[i].ID, resumed.Positions[i], ref.Positions[i])
					}
				}
				if resumed.EnergyImbalanceKWh != ref.EnergyImbalanceKWh ||
					resumed.PaymentImbalanceCents != ref.PaymentImbalanceCents {
					t.Error("conservation figures diverged after resume")
				}
				gotDigest := digestStore(t, crashStore)
				// Key material first, by record: a resumed process re-derives
				// its survivors' keys, so this is where a derivation that
				// depended on process history would show.
				if len(gotDigest.keys) != len(refDigest.keys) {
					t.Errorf("key material: %d records after resume, %d uninterrupted", len(gotDigest.keys), len(refDigest.keys))
				}
				for i := 0; i < min(len(gotDigest.keys), len(refDigest.keys)); i++ {
					if !reflect.DeepEqual(gotDigest.keys[i], refDigest.keys[i]) {
						t.Errorf("key material diverged after resume, first at record %d:\n%s/%s %x\nvs\n%s/%s %x", i,
							gotDigest.keys[i].Scope, gotDigest.keys[i].Party, gotDigest.keys[i].Fingerprint,
							refDigest.keys[i].Scope, refDigest.keys[i].Party, refDigest.keys[i].Fingerprint)
						break
					}
				}
				if !reflect.DeepEqual(gotDigest, refDigest) {
					t.Errorf("durable state diverged after resume:\n%+v\nvs\n%+v", gotDigest, refDigest)
				}
			})
		}
	}
}

// TestLiveStoreMemoryBounded is the durability cousin of
// TestLivePayloadRelease: attaching a WAL store to a streaming live run
// must not reintroduce payload retention — the store keeps O(1) in-memory
// state — so the post-run heap stays near the pre-run baseline.
func TestLiveStoreMemoryBounded(t *testing.T) {
	evo := testEvolution(t, 3, dataset.ChurnConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()

	w, err := store.OpenWAL(filepath.Join(t.TempDir(), "bounded.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc

	cfg := testLiveConfig(51, 0)
	cfg.Grid.Store = w
	res, err := StreamLive(ctx, cfg, evo, func(er *EpochResult) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != nil {
		t.Error("streamed durable run retained epochs")
	}

	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	after := ms.HeapAlloc
	runtime.KeepAlive(res)
	// The run's live state is one epoch's worth; 8 MiB of slack absorbs
	// allocator and runtime noise while still catching a store that holds
	// every block or payload it was handed.
	const budget = 8 << 20
	if after > before+budget {
		t.Errorf("durable streaming run grew the heap %d -> %d bytes (budget %d)", before, after, budget)
	}
}
