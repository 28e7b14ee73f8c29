package store

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/pem-go/pem/internal/ledger"
	"github.com/pem-go/pem/internal/market"
)

// The conformance suite: the Store interface semantics — empty-state
// behavior, genesis-reset replay, latest-wins upserts, checkpoint
// replacement and closed-store errors — held on the WAL. The suite closes
// and reopens the segment between its write and read halves, so every
// assertion also covers recovery-after-restart.

// reopenable opens a fresh WAL and a reopen hook that closes the current
// segment and returns a fresh replay of it.
func reopenable(t *testing.T) (Store, func(t *testing.T) Store) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	cur := w
	reopen := func(t *testing.T) Store {
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
		if cur, err = OpenWAL(path); err != nil {
			t.Fatal(err)
		}
		if rec := cur.Recovered(); rec.Truncated {
			t.Fatalf("clean reopen reported truncation: %+v", rec)
		}
		return cur
	}
	return w, reopen
}

// testChain builds a verified ledger chain of 1+windows blocks (genesis
// included), with per-window trades derived from the tag so different
// chains never collide.
func testChain(t *testing.T, tag string, windows int) []ledger.Block {
	t.Helper()
	l := ledger.New()
	for w := 0; w < windows; w++ {
		trades := []ledger.TradeRecord{
			{Seller: tag + "-s", Buyer: tag + "-b", EnergyKWh: 1.5 + float64(w), PaymentCents: 150 + float64(w)},
		}
		if _, err := l.Append(w, 100+float64(w), trades); err != nil {
			t.Fatal(err)
		}
	}
	blocks := make([]ledger.Block, l.Len())
	for i := range blocks {
		blk, err := l.Block(i)
		if err != nil {
			t.Fatal(err)
		}
		blocks[i] = blk
	}
	return blocks
}

func appendChain(t *testing.T, st Store, scope string, blocks []ledger.Block) {
	t.Helper()
	for _, blk := range blocks {
		if err := st.AppendBlock(scope, blk); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStoreConformance(t *testing.T) {
	t.Run("wal", func(t *testing.T) {
		st, reopen := reopenable(t)

		// Empty store: every getter answers, nothing is there.
		if scopes, err := st.Scopes(); err != nil || len(scopes) != 0 {
			t.Fatalf("empty Scopes = %v, %v", scopes, err)
		}
		if aggs, err := st.Aggregates(); err != nil || len(aggs) != 0 {
			t.Fatalf("empty Aggregates = %v, %v", aggs, err)
		}
		if ps, err := st.Positions(); err != nil || len(ps) != 0 {
			t.Fatalf("empty Positions = %v, %v", ps, err)
		}
		if ks, err := st.KeyMaterial(); err != nil || len(ks) != 0 {
			t.Fatalf("empty KeyMaterial = %v, %v", ks, err)
		}
		if _, ok, err := st.LastCheckpoint(); err != nil || ok {
			t.Fatalf("empty LastCheckpoint ok=%v err=%v", ok, err)
		}
		if blocks, err := st.Blocks("nope"); err != nil || len(blocks) != 0 {
			t.Fatalf("unknown scope Blocks = %v, %v", blocks, err)
		}

		// Chains persist per scope, in append order, and verify end to end.
		chainA := testChain(t, "a", 3)
		chainB := testChain(t, "b", 2)
		appendChain(t, st, "e00-c00", chainA)
		appendChain(t, st, "e00-c01", chainB)
		st = reopen(t)
		scopes, err := st.Scopes()
		if err != nil || !reflect.DeepEqual(scopes, []string{"e00-c00", "e00-c01"}) {
			t.Fatalf("Scopes = %v, %v", scopes, err)
		}
		got, err := st.Blocks("e00-c00")
		if err != nil || !reflect.DeepEqual(got, chainA) {
			t.Fatalf("Blocks(e00-c00) diverged: %v", err)
		}
		if l, err := ledger.FromBlocks(got); err != nil || l.Verify() != nil {
			t.Fatalf("recovered chain does not verify: %v", err)
		}

		// Genesis reset: a resumed epoch replays its chain from scratch and
		// supersedes the partial one.
		replayed := testChain(t, "a2", 2)
		appendChain(t, st, "e00-c00", replayed)
		st = reopen(t)
		if got, err := st.Blocks("e00-c00"); err != nil || !reflect.DeepEqual(got, replayed) {
			t.Fatalf("genesis reset did not supersede: %v, %v", got, err)
		}

		// Aggregates and key material are latest-wins upserts, sorted.
		if err := st.PutAggregate(Aggregate{Scope: "e00-c01", Windows: 1, ImportKWh: 9}); err != nil {
			t.Fatal(err)
		}
		wantAggs := []Aggregate{
			{Scope: "e00-c00", Windows: 2, ImportKWh: 1.25, ExportKWh: 0.5, ChainHead: "beef", Folded: false},
			{Scope: "e00-c01", Windows: 2, Folded: true},
		}
		for _, a := range wantAggs {
			if err := st.PutAggregate(a); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.PutKeyMaterial(KeyRecord{Scope: "e00-c00", Party: "h1", Fingerprint: []byte{1}}); err != nil {
			t.Fatal(err)
		}
		wantKeys := []KeyRecord{
			{Scope: "e00-c00", Party: "h0", Fingerprint: []byte{9, 9}},
			{Scope: "e00-c00", Party: "h1", Fingerprint: []byte{4, 2}},
			{Scope: "e00-c01", Party: "h0", Fingerprint: []byte{7}},
		}
		for _, k := range []int{1, 0, 2} { // out of order on purpose
			if err := st.PutKeyMaterial(wantKeys[k]); err != nil {
				t.Fatal(err)
			}
		}
		st = reopen(t)
		if aggs, err := st.Aggregates(); err != nil || !reflect.DeepEqual(aggs, wantAggs) {
			t.Fatalf("Aggregates = %+v, %v; want %+v", aggs, err, wantAggs)
		}
		if ks, err := st.KeyMaterial(); err != nil || !reflect.DeepEqual(ks, wantKeys) {
			t.Fatalf("KeyMaterial = %+v, %v; want %+v", ks, err, wantKeys)
		}

		// Positions are latest-wins per agent ID.
		if err := st.UpsertPositions([]market.AgentPosition{
			{ID: "h0", JoinEpoch: 0, ExitEpoch: -1},
			{ID: "h1", JoinEpoch: 0, ExitEpoch: -1},
		}); err != nil {
			t.Fatal(err)
		}
		wantPos := []market.AgentPosition{
			{ID: "h0", Flows: market.AgentFlows{BuyKWh: 2.5, PaidCents: 260}, ExitEpoch: -1},
			{ID: "h1", Flows: market.AgentFlows{SellKWh: 2.5, EarnedCents: 260}, JoinEpoch: 1, ExitEpoch: 2, ExitKind: "depart"},
		}
		if err := st.UpsertPositions(wantPos); err != nil {
			t.Fatal(err)
		}
		st = reopen(t)
		if ps, err := st.Positions(); err != nil || !reflect.DeepEqual(ps, wantPos) {
			t.Fatalf("Positions = %+v, %v; want %+v", ps, err, wantPos)
		}

		// Checkpoints replace each other; the newest intact one wins.
		cp1 := Checkpoint{Epoch: 0, Roster: []string{"h0", "h1"}, Seed: 41, Config: []byte(`{"v":1}`), ConfigHash: "cafe"}
		cp2 := Checkpoint{
			Epoch:      1,
			Roster:     []string{"h0", "h1", "h2"},
			Positions:  wantPos,
			ChainHeads: []ChainHead{{Scope: "e01-c00", Head: "f00d"}},
			Seed:       41,
			Config:     []byte(`{"v":1}`),
			ConfigHash: "cafe",
		}
		if err := st.PutCheckpoint(cp1); err != nil {
			t.Fatal(err)
		}
		if err := st.PutCheckpoint(cp2); err != nil {
			t.Fatal(err)
		}
		st = reopen(t)
		cp, ok, err := st.LastCheckpoint()
		if err != nil || !ok || !reflect.DeepEqual(cp, cp2) {
			t.Fatalf("LastCheckpoint = %+v, %v, %v; want %+v", cp, ok, err, cp2)
		}

		// Sync is available; Close makes every further call ErrClosed.
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if err := st.AppendBlock("x", chainA[0]); !errors.Is(err, ErrClosed) {
			t.Errorf("AppendBlock after Close = %v, want ErrClosed", err)
		}
		if err := st.PutCheckpoint(cp1); !errors.Is(err, ErrClosed) {
			t.Errorf("PutCheckpoint after Close = %v, want ErrClosed", err)
		}
		if _, err := st.Blocks("x"); !errors.Is(err, ErrClosed) {
			t.Errorf("Blocks after Close = %v, want ErrClosed", err)
		}
		if _, _, err := st.LastCheckpoint(); !errors.Is(err, ErrClosed) {
			t.Errorf("LastCheckpoint after Close = %v, want ErrClosed", err)
		}
		if err := st.Close(); err != nil {
			t.Errorf("second Close = %v, want nil", err)
		}
	})
}
