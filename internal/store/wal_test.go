package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/pem-go/pem/internal/ledger"
	"github.com/pem-go/pem/internal/market"
)

// walFixture writes a representative segment — two chains, aggregates, key
// material, positions, a first checkpoint, and a final record — then closes
// it and returns the path plus the byte offset where the final record
// starts (so torn-write tests can shear it at every offset).
func walFixture(t *testing.T, final func(*WAL) error) (path string, lastRecStart int64) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "seg.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	appendChain(t, w, "e00-c00", testChain(t, "a", 2))
	if err := w.PutKeyMaterial(KeyRecord{Scope: "e00-c00", Party: "h0", Fingerprint: []byte{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := w.PutAggregate(Aggregate{Scope: "e00-c00", Windows: 2, ImportKWh: 3, ChainHead: "beef"}); err != nil {
		t.Fatal(err)
	}
	if err := w.UpsertPositions(testChainPositions()); err != nil {
		t.Fatal(err)
	}
	if err := w.PutCheckpoint(walTestCheckpoint()); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	lastRecStart = w.end
	w.mu.Unlock()
	if err := final(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path, lastRecStart
}

func testChainPositions() []market.AgentPosition {
	return []market.AgentPosition{
		{ID: "h0", ExitEpoch: -1},
		{ID: "h1", JoinEpoch: 1, ExitEpoch: -1},
	}
}

func walTestCheckpoint() Checkpoint {
	return Checkpoint{
		Epoch:      0,
		Roster:     []string{"h0", "h1"},
		Positions:  testChainPositions(),
		ChainHeads: []ChainHead{{Scope: "e00-c00", Head: "beef"}},
		Seed:       41,
		Config:     []byte(`{"v":1}`),
		ConfigHash: "cafe",
	}
}

// TestWALTornTailEveryOffset is the torn-write sweep: the segment is cut at
// every byte offset inside its final record (a second checkpoint), and each
// truncation must reopen cleanly with the tail dropped and the previous
// checkpoint — the durable resume point — intact. This is the "crash during
// the commit write" model at byte granularity.
func TestWALTornTailEveryOffset(t *testing.T) {
	path, lastRecStart := walFixture(t, func(w *WAL) error {
		cp := walTestCheckpoint()
		cp.Epoch = 1
		cp.ChainHeads = []ChainHead{{Scope: "e01-c00", Head: "f00d"}}
		return w.PutCheckpoint(cp)
	})
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(whole))
	if lastRecStart <= int64(len(walMagic)) || lastRecStart >= size {
		t.Fatalf("fixture shape: last record at %d of %d", lastRecStart, size)
	}

	for cut := lastRecStart; cut < size; cut++ {
		torn := filepath.Join(t.TempDir(), "torn.wal")
		if err := os.WriteFile(torn, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := OpenWAL(torn)
		if err != nil {
			t.Fatalf("cut at %d: reopen failed: %v", cut, err)
		}
		rec := w.Recovered()
		if cut == lastRecStart {
			// Nothing of the final record landed: a clean prefix, no repair.
			if rec.Truncated {
				t.Fatalf("cut at %d: clean prefix reported truncation: %+v", cut, rec)
			}
		} else if !rec.Truncated || rec.DroppedBytes != cut-lastRecStart {
			t.Fatalf("cut at %d: recovery = %+v, want %d dropped bytes", cut, rec, cut-lastRecStart)
		}
		cp, ok, err := w.LastCheckpoint()
		if err != nil || !ok {
			t.Fatalf("cut at %d: lost the previous checkpoint: ok=%v err=%v", cut, ok, err)
		}
		if want := walTestCheckpoint(); !reflect.DeepEqual(cp, want) {
			t.Fatalf("cut at %d: checkpoint diverged: %+v", cut, cp)
		}
		// The surviving records still read back whole.
		if blocks, err := w.Blocks("e00-c00"); err != nil || len(blocks) != 3 {
			t.Fatalf("cut at %d: chain lost: %d blocks, %v", cut, len(blocks), err)
		}
		// And the repaired segment accepts new writes where the tear was.
		if err := w.PutAggregate(Aggregate{Scope: "e01-c00", Windows: 1}); err != nil {
			t.Fatalf("cut at %d: append after repair: %v", cut, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALBitFlips flips seeded random bits across the record region: replay
// must never panic and must come back with a typed outcome — either a clean
// open whose valid prefix simply got shorter, or ErrCorrupt/ErrNotWAL.
func TestWALBitFlips(t *testing.T) {
	path, _ := walFixture(t, func(w *WAL) error {
		return w.PutAggregate(Aggregate{Scope: "e01-c00", Windows: 4})
	})
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20200425))
	for i := 0; i < 200; i++ {
		off := len(walMagic) + rng.Intn(len(whole)-len(walMagic))
		bit := byte(1) << rng.Intn(8)
		flipped := filepath.Join(t.TempDir(), "flip.wal")
		mut := append([]byte(nil), whole...)
		mut[off] ^= bit
		if err := os.WriteFile(flipped, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := OpenWAL(flipped)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNotWAL) {
				t.Fatalf("flip at %d/%#x: untyped error %v", off, bit, err)
			}
			continue
		}
		// The flipped record and everything after it must be gone; whatever
		// survived must still decode without error.
		if _, err := w.Blocks("e00-c00"); err != nil {
			t.Fatalf("flip at %d/%#x: surviving prefix unreadable: %v", off, bit, err)
		}
		if _, err := w.Aggregates(); err != nil {
			t.Fatalf("flip at %d/%#x: surviving aggregates unreadable: %v", off, bit, err)
		}
		if _, _, err := w.LastCheckpoint(); err != nil {
			t.Fatalf("flip at %d/%#x: checkpoint read: %v", off, bit, err)
		}
		w.Close()
	}
}

// TestWALRejectsForeignFile: a file that is not a WAL segment must fail
// typed, not be silently truncated and overwritten.
func TestWALRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notes.txt")
	if err := os.WriteFile(path, []byte("definitely not a WAL segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(path); !errors.Is(err, ErrNotWAL) {
		t.Fatalf("foreign file opened as WAL: %v", err)
	}
	// A sub-header file is indistinguishable from a segment torn at birth:
	// it is reinitialized, with the recovery report saying so.
	tiny := filepath.Join(t.TempDir(), "tiny.wal")
	if err := os.WriteFile(tiny, []byte("PEM"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(tiny)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if rec := w.Recovered(); !rec.Truncated || rec.DroppedBytes != 3 {
		t.Fatalf("torn-at-birth recovery = %+v", rec)
	}
}

// TestWALCorruptCheckpointPayload: a checkpoint record whose CRC is valid
// but whose payload does not decode is a format error, not a torn write —
// replay must refuse with ErrCorrupt instead of silently dropping a resume
// point that was durably committed.
func TestWALCorruptCheckpointPayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	body := []byte{recCheckpoint, '{', 'x'} // CRC-valid, JSON-invalid
	rec := make([]byte, walHeaderLen+len(body))
	binary.BigEndian.PutUint32(rec[0:4], uint32(len(body)))
	binary.BigEndian.PutUint32(rec[4:8], crc32.Checksum(body, castagnoli))
	copy(rec[walHeaderLen:], body)
	if err := os.WriteFile(path, append(append([]byte(nil), walMagic[:]...), rec...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt checkpoint opened: %v", err)
	}
}

// TestWALBlockIndex: the per-scope index of block-record offsets is the same
// whether appends built it or a replay did — interleaved scopes stay apart,
// a genesis block restarts its chain only, and Scopes keeps superseded
// chains' names — and Blocks reads through it without scanning the log.
func TestWALBlockIndex(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	a, b, a2 := testChain(t, "a", 3), testChain(t, "b", 4), testChain(t, "a2", 2)
	for i := range b { // interleave a and b, other record types in between
		if i < len(a) {
			appendChain(t, w, "e00-c00", a[i:i+1])
		}
		if err := w.PutAggregate(Aggregate{Scope: "e00-c01", Windows: i}); err != nil {
			t.Fatal(err)
		}
		appendChain(t, w, "e00-c01", b[i:i+1])
	}
	appendChain(t, w, "e00-c00", a2) // a replayed epoch supersedes a
	check := func(when string) {
		t.Helper()
		if scopes, err := w.Scopes(); err != nil || !reflect.DeepEqual(scopes, []string{"e00-c00", "e00-c01"}) {
			t.Fatalf("%s: Scopes = %v, %v", when, scopes, err)
		}
		for scope, want := range map[string][]ledger.Block{"e00-c00": a2, "e00-c01": b} {
			if got, err := w.Blocks(scope); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Blocks(%s) = %d blocks, %v; want %d", when, scope, len(got), err, len(want))
			}
			if got := len(w.chains[scope]); got != len(want) {
				t.Fatalf("%s: %d offsets indexed for %s, want %d", when, got, scope, len(want))
			}
		}
	}
	check("appended")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w, err = OpenWAL(path); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	check("replayed")
}

// walABI is one record of each of the five types, with fixed contents.
func walABI() (ledger.Block, Aggregate, []market.AgentPosition, KeyRecord, Checkpoint) {
	return ledger.Block{
			Index: 0, Window: 3, PriceCentsPerKWh: 100.5,
			Trades: []ledger.TradeRecord{{Seller: "h0", Buyer: "h1", EnergyKWh: 0.25, PaymentCents: 25.125}},
			Hash:   [32]byte{0: 0xab, 31: 0xcd},
		},
		Aggregate{Scope: "e00-c00", Windows: 2, ImportKWh: 1.5, ExportKWh: 0.75, ChainHead: "beef"},
		[]market.AgentPosition{
			{ID: "h0", Flows: market.AgentFlows{BuyKWh: 0.5, PaidCents: 50}, ExitEpoch: -1},
			{ID: "h1", JoinEpoch: 1, ExitEpoch: 2, ExitKind: "depart"},
		},
		KeyRecord{Scope: "e00-c00", Party: "h0", Fingerprint: []byte{0xde, 0xad}},
		Checkpoint{
			Epoch: 2, Roster: []string{"h0"}, Seed: 7, Config: []byte(`{"v":1}`), ConfigHash: "cafe",
			ChainHeads: []ChainHead{{Scope: "e00-c00", Head: "beef"}},
		}
}

// walABIGolden is the segment holding walABI's records in type order, as
// written before this pin existed: the 8-byte magic "PEMWAL01", then per
// record a big-endian uint32 body length, a big-endian CRC-32C of the body,
// the type byte (1 block, 2 aggregate, 3 positions, 4 key, 5 checkpoint)
// and the JSON payload.
const walABIGolden = `
	50454d57414c303100000135ab8fff4c017b2253636f7065223a226530302d63
	3030222c22426c6f636b223a7b22496e646578223a302c2257696e646f77223a
	332c22507269636543656e74735065724b5768223a3130302e352c2254726164
	6573223a5b7b2253656c6c6572223a226830222c224275796572223a22683122
	2c22456e657267794b5768223a302e32352c225061796d656e7443656e747322
	3a32352e3132357d5d2c225072657648617368223a5b302c302c302c302c302c
	302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c
	302c302c302c302c302c302c302c302c302c302c305d2c2248617368223a5b31
	37312c302c302c302c302c302c302c302c302c302c302c302c302c302c302c30
	2c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c32
	30355d7d7d00000063f602819c027b2253636f7065223a226530302d63303022
	2c2257696e646f7773223a322c22496d706f72744b5768223a312e352c224578
	706f72744b5768223a302e37352c22436861696e48656164223a226265656622
	2c22466f6c646564223a66616c73657d0000018cd0a09714035b7b224944223a
	226830222c22466c6f7773223a7b224275794b5768223a302e352c2253656c6c
	4b5768223a302c225061696443656e7473223a35302c224561726e656443656e
	7473223a302c2247726964496d706f72744b5768223a302c2247726964457870
	6f72744b5768223a302c2247726964436f737443656e7473223a302c22477269
	64526576656e756543656e7473223a307d2c224a6f696e45706f6368223a302c
	224578697445706f6368223a2d312c22457869744b696e64223a22227d2c7b22
	4944223a226831222c22466c6f7773223a7b224275794b5768223a302c225365
	6c6c4b5768223a302c225061696443656e7473223a302c224561726e65644365
	6e7473223a302c2247726964496d706f72744b5768223a302c22477269644578
	706f72744b5768223a302c2247726964436f737443656e7473223a302c224772
	6964526576656e756543656e7473223a307d2c224a6f696e45706f6368223a31
	2c224578697445706f6368223a322c22457869744b696e64223a226465706172
	74227d5d0000003633fcd5b4047b2253636f7065223a226530302d633030222c
	225061727479223a226830222c2246696e6765727072696e74223a223371303d
	227d00000093c64ee84f057b2245706f6368223a322c22526f73746572223a5b
	226830225d2c22506f736974696f6e73223a6e756c6c2c22436861696e486561
	6473223a5b7b2253636f7065223a226530302d633030222c2248656164223a22
	62656566227d5d2c2253656564223a372c22436f6e666967223a2265794a3249
	6a6f7866513d3d222c22436f6e66696748617368223a2263616665227d
`

// TestWALRecordABI pins the on-disk record format: a segment holding one
// record of each type is byte-identical to the golden, and replaying it
// returns the records that were appended. A change here breaks pem.Resume
// of every WAL already on disk.
func TestWALRecordABI(t *testing.T) {
	blk, agg, positions, key, cp := walABI()
	path := filepath.Join(t.TempDir(), "abi.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, err := range []error{
		w.AppendBlock("e00-c00", blk),
		w.PutAggregate(agg),
		w.UpsertPositions(positions),
		w.PutKeyMaterial(key),
		w.PutCheckpoint(cp),
		w.Close(),
	} {
		if err != nil {
			t.Fatalf("step %d: %v", i+1, err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.Join(strings.Fields(walABIGolden), ""))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("segment is %d bytes, golden %d; first difference at offset %d:\n%s", len(got), len(want), i, hex.EncodeToString(got))
	}

	// Replay returns what was appended.
	if w, err = OpenWAL(path); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if rec := w.Recovered(); rec.Truncated || rec.Records != 5 {
		t.Fatalf("replay: %+v, want 5 records and no truncation", rec)
	}
	blocks, err1 := w.Blocks("e00-c00")
	aggs, err2 := w.Aggregates()
	replayed, err3 := w.Positions()
	keys, err4 := w.KeyMaterial()
	last, ok, err5 := w.LastCheckpoint()
	if err := errors.Join(err1, err2, err3, err4, err5); err != nil || !ok {
		t.Fatalf("replay read: %v (checkpoint found: %v)", err, ok)
	}
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"blocks", blocks, []ledger.Block{blk}},
		{"aggregates", aggs, []Aggregate{agg}},
		{"positions", replayed, positions},
		{"key material", keys, []KeyRecord{key}},
		{"checkpoint", last, cp},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("replayed %s = %+v, want %+v", c.name, c.got, c.want)
		}
	}
}
