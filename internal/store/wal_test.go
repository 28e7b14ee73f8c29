package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
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
