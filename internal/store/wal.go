package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"slices"
	"sort"
	"sync"

	"github.com/pem-go/pem/internal/ledger"
	"github.com/pem-go/pem/internal/market"
)

// WAL is the append-only file Store: every write becomes one
// length-prefixed, CRC-checked record appended to a single segment file,
// and OpenWAL replays the segment, truncating a torn tail back to the
// longest valid prefix — the crash model is "the machine died mid-write",
// and recovery must never lose a record whose append call had returned.
//
// The write path keeps little state in memory — the file offset, the cached
// last checkpoint and one offset per block record of each scope's current
// chain — and the read-side getters go back to the segment: Blocks reads
// exactly its scope's records, the others scan on demand. That asymmetry is
// deliberate: a streaming grid run appends one aggregate per coalition for
// 10^5 coalitions, and the store must not become the memory bound the
// streaming supervisor just removed.
//
// Record layout, after an 8-byte magic header:
//
//	uint32 big-endian  body length L (1 ≤ L ≤ 16 MiB)
//	uint32 big-endian  CRC-32C (Castagnoli) of the body
//	byte               record type (block / aggregate / positions / key /
//	                   checkpoint)
//	L-1 bytes          JSON payload
//
// Each record is appended with a single write call; a checkpoint append is
// followed by fsync, making checkpoints the durable resume points.
type WAL struct {
	mu         sync.Mutex
	closed     bool
	f          *os.File
	end        int64 // offset past the last valid record
	checkpoint *Checkpoint
	// chains indexes each scope's current chain: the offsets of its block
	// records, in append order, from the latest genesis on.
	chains   map[string][]int64
	recovery RecoveryInfo
}

// RecoveryInfo reports what replay-on-open had to do to reach a valid
// prefix.
type RecoveryInfo struct {
	// Truncated is set when the segment ended in a torn or corrupt record
	// and was cut back to the last valid one.
	Truncated bool
	// DroppedBytes is how many trailing bytes the truncation removed.
	DroppedBytes int64
	// Records is the number of valid records the replay accepted.
	Records int
}

// Typed WAL errors.
var (
	// ErrNotWAL marks a file whose header is not a WAL segment's.
	ErrNotWAL = errors.New("store: not a WAL segment")
	// ErrCorrupt marks a record that passed its CRC but failed to decode —
	// a writer bug or format drift, not a torn write, so replay refuses to
	// guess rather than silently dropping committed data.
	ErrCorrupt = errors.New("store: corrupt WAL record")
)

var walMagic = [8]byte{'P', 'E', 'M', 'W', 'A', 'L', '0', '1'}

// Record types. Values are part of the on-disk format; never renumber.
const (
	recBlock      = byte(1)
	recAggregate  = byte(2)
	recPositions  = byte(3)
	recKey        = byte(4)
	recCheckpoint = byte(5)
)

// maxRecordLen bounds a record body (16 MiB): large enough for a
// checkpoint over a very large fleet, small enough that a corrupt length
// prefix cannot drive a multi-gigabyte allocation during replay.
const maxRecordLen = 1 << 24

// walHeaderLen is the per-record prefix: length + CRC.
const walHeaderLen = 8

// blockRecord is the on-disk payload of recBlock.
type blockRecord struct {
	// Scope is the coalition scope the block belongs to.
	Scope string
	// Block is the committed ledger block.
	Block ledger.Block
}

// OpenWAL opens (creating if absent) the segment at path and replays it.
// A torn tail — short record, bad length, CRC mismatch, unknown type — is
// truncated back to the longest valid prefix (see Recovered); a record
// that passes its CRC but fails to decode returns ErrCorrupt, and a file
// that is not a WAL segment at all returns ErrNotWAL.
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open WAL: %w", err)
	}
	w := &WAL{f: f, chains: make(map[string][]int64)}
	if err := w.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

func (w *WAL) lock()   { w.mu.Lock() }
func (w *WAL) unlock() { w.mu.Unlock() }

// replay validates the header, scans the segment for the last valid
// prefix, caches the newest intact checkpoint, indexes the block records,
// and truncates a torn tail.
func (w *WAL) replay() error {
	size, err := w.f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("store: WAL size: %w", err)
	}
	if size < int64(len(walMagic)) {
		// New (or torn-at-birth) segment: start it fresh.
		if err := w.f.Truncate(0); err != nil {
			return fmt.Errorf("store: WAL reset: %w", err)
		}
		if _, err := w.f.WriteAt(walMagic[:], 0); err != nil {
			return fmt.Errorf("store: WAL header: %w", err)
		}
		if size > 0 {
			w.recovery = RecoveryInfo{Truncated: true, DroppedBytes: size}
		}
		w.end = int64(len(walMagic))
		return nil
	}
	var magic [8]byte
	if _, err := w.f.ReadAt(magic[:], 0); err != nil {
		return fmt.Errorf("store: WAL header: %w", err)
	}
	if magic != walMagic {
		return fmt.Errorf("%w: bad magic %q", ErrNotWAL, magic[:])
	}

	off := int64(len(walMagic))
	var header [walHeaderLen]byte
	for {
		if _, err := w.f.ReadAt(header[:], off); err != nil {
			break // short header: torn tail
		}
		l := binary.BigEndian.Uint32(header[0:4])
		if l < 1 || l > maxRecordLen {
			break // nonsense length: torn or flipped prefix
		}
		body := make([]byte, l)
		if _, err := w.f.ReadAt(body, off+walHeaderLen); err != nil {
			break // short body: torn tail
		}
		if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(header[4:8]) {
			break // corruption: everything from here is untrusted
		}
		if body[0] < recBlock || body[0] > recCheckpoint {
			break // unknown type: same treatment as corruption
		}
		switch body[0] {
		case recCheckpoint:
			var cp Checkpoint
			if err := json.Unmarshal(body[1:], &cp); err != nil {
				return fmt.Errorf("%w: checkpoint at offset %d: %v", ErrCorrupt, off, err)
			}
			w.checkpoint = &cp
		case recBlock:
			scope, index, err := blockHead(body[1:])
			if err != nil {
				return fmt.Errorf("%w: block record at offset %d: %v", ErrCorrupt, off, err)
			}
			w.indexBlock(scope, index, off)
		}
		off += walHeaderLen + int64(l)
		w.recovery.Records++
	}
	w.end = off
	if off < size {
		if err := w.f.Truncate(off); err != nil {
			return fmt.Errorf("store: WAL truncate torn tail: %w", err)
		}
		w.recovery.Truncated = true
		w.recovery.DroppedBytes = size - off
	}
	return nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Recovered reports what the opening replay found and repaired.
func (w *WAL) Recovered() RecoveryInfo {
	w.lock()
	defer w.unlock()
	return w.recovery
}

// Path returns the segment file's name.
func (w *WAL) Path() string { return w.f.Name() }

// append encodes and appends one record, taking the lock.
func (w *WAL) append(typ byte, payload any) error {
	w.lock()
	defer w.unlock()
	return w.appendLocked(typ, payload)
}

// blockHead reads which chain a block record extends, and at what height,
// from the first seven tokens of its JSON — {"Scope":…,"Block":{"Index":… is
// how encodeBody lays a blockRecord out — so replay never decodes the
// trades behind them.
func blockHead(js []byte) (scope string, index int, err error) {
	dec := json.NewDecoder(bytes.NewReader(js))
	var tok [7]json.Token
	for i := range tok {
		if tok[i], err = dec.Token(); err != nil {
			return "", 0, err
		}
	}
	scope, isString := tok[2].(string)
	height, isNumber := tok[6].(float64)
	if tok[1] != "Scope" || tok[3] != "Block" || tok[5] != "Index" || !isString || !isNumber {
		return "", 0, errors.New("not a block record's head")
	}
	return scope, int(height), nil
}

// indexBlock records that the block record at off extends scope's chain. A
// genesis block restarts it: a replayed epoch's new chain supersedes the
// one a crash left behind.
func (w *WAL) indexBlock(scope string, index int, off int64) {
	if index == 0 {
		w.chains[scope] = w.chains[scope][:0]
	}
	w.chains[scope] = append(w.chains[scope], off)
}

// appendLocked encodes and appends one record; the caller holds the lock.
// The whole record — length, CRC, body — goes down in a single write call,
// keeping the torn-write window as small as one syscall allows.
func (w *WAL) appendLocked(typ byte, payload any) error {
	if w.closed {
		return ErrClosed
	}
	body, err := encodeBody(typ, payload)
	if err != nil {
		return err
	}
	rec := make([]byte, walHeaderLen+len(body))
	binary.BigEndian.PutUint32(rec[0:4], uint32(len(body)))
	binary.BigEndian.PutUint32(rec[4:8], crc32.Checksum(body, castagnoli))
	copy(rec[walHeaderLen:], body)
	if _, err := w.f.WriteAt(rec, w.end); err != nil {
		return fmt.Errorf("store: WAL append: %w", err)
	}
	if br, ok := payload.(blockRecord); ok {
		w.indexBlock(br.Scope, br.Block.Index, w.end)
	}
	w.end += int64(len(rec))
	w.recovery.Records++
	return nil
}

// encodeBody builds a record body: type byte + JSON payload.
func encodeBody(typ byte, payload any) ([]byte, error) {
	js, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("store: encode record type %d: %w", typ, err)
	}
	if len(js)+1 > maxRecordLen {
		return nil, fmt.Errorf("store: record type %d is %d bytes, over the %d cap", typ, len(js)+1, maxRecordLen)
	}
	body := make([]byte, 1+len(js))
	body[0] = typ
	copy(body[1:], js)
	return body, nil
}

// readBody reads the body of the valid record at off. The caller holds the
// lock.
func (w *WAL) readBody(off int64) ([]byte, error) {
	var header [walHeaderLen]byte
	if _, err := w.f.ReadAt(header[:], off); err != nil {
		return nil, fmt.Errorf("store: WAL read: %w", err)
	}
	body := make([]byte, binary.BigEndian.Uint32(header[0:4]))
	if _, err := w.f.ReadAt(body, off+walHeaderLen); err != nil {
		return nil, fmt.Errorf("store: WAL read: %w", err)
	}
	return body, nil
}

// scan walks the valid prefix, handing each record body of the wanted
// type to visit. The caller holds the lock.
func (w *WAL) scan(want byte, visit func(body []byte) error) error {
	for off := int64(len(walMagic)); off < w.end; {
		body, err := w.readBody(off)
		if err != nil {
			return err
		}
		if body[0] == want {
			if err := visit(body[1:]); err != nil {
				return err
			}
		}
		off += walHeaderLen + int64(len(body))
	}
	return nil
}

// AppendBlock implements Store.
func (w *WAL) AppendBlock(scope string, blk ledger.Block) error {
	return w.append(recBlock, blockRecord{Scope: scope, Block: blk})
}

// Blocks implements Store: the scope's latest chain, in append order, read
// through the index — only the scope's own records are touched.
func (w *WAL) Blocks(scope string) ([]ledger.Block, error) {
	w.lock()
	defer w.unlock()
	if w.closed {
		return nil, ErrClosed
	}
	var out []ledger.Block
	for _, off := range w.chains[scope] {
		body, err := w.readBody(off)
		if err != nil {
			return nil, err
		}
		var br blockRecord
		if err := json.Unmarshal(body[1:], &br); err != nil {
			return nil, fmt.Errorf("%w: block record: %v", ErrCorrupt, err)
		}
		out = append(out, br.Block)
	}
	return out, nil
}

// Scopes implements Store.
func (w *WAL) Scopes() ([]string, error) {
	w.lock()
	defer w.unlock()
	if w.closed {
		return nil, ErrClosed
	}
	out := make([]string, 0, len(w.chains))
	for s := range w.chains {
		out = append(out, s)
	}
	sort.Strings(out)
	return out, nil
}

// PutAggregate implements Store.
func (w *WAL) PutAggregate(agg Aggregate) error {
	return w.append(recAggregate, agg)
}

// Aggregates implements Store: latest record per scope, sorted.
func (w *WAL) Aggregates() ([]Aggregate, error) {
	return latestRecords(w, recAggregate, "aggregate", one[Aggregate], func(a Aggregate) string { return a.Scope })
}

// latestRecords is the one reader of keyed records: it scans every record
// of one kind, decodes each into Ts, and returns the last T written under
// each key, sorted by key. A record that does not decode fails as
// ErrCorrupt naming what.
func latestRecords[T any](w *WAL, kind byte, what string, decode func([]byte) ([]T, error), key func(T) string) ([]T, error) {
	w.lock()
	defer w.unlock()
	if w.closed {
		return nil, ErrClosed
	}
	latest := make(map[string]T)
	err := w.scan(kind, func(body []byte) error {
		vs, err := decode(body)
		if err != nil {
			return fmt.Errorf("%w: %s record: %v", ErrCorrupt, what, err)
		}
		for _, v := range vs {
			latest[key(v)] = v
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]T, 0, len(latest))
	for _, k := range slices.Sorted(maps.Keys(latest)) {
		out = append(out, latest[k])
	}
	return out, nil
}

// one and batch decode a record that holds one T or a JSON array of them.
func one[T any](body []byte) ([]T, error) {
	vs := make([]T, 1)
	return vs, json.Unmarshal(body, &vs[0])
}

func batch[T any](body []byte) (vs []T, err error) {
	err = json.Unmarshal(body, &vs)
	return vs, err
}

// UpsertPositions implements Store.
func (w *WAL) UpsertPositions(positions []market.AgentPosition) error {
	return w.append(recPositions, positions)
}

// Positions implements Store: latest record per agent ID, sorted.
func (w *WAL) Positions() ([]market.AgentPosition, error) {
	return latestRecords(w, recPositions, "positions", batch[market.AgentPosition], func(p market.AgentPosition) string { return p.ID })
}

// PutKeyMaterial implements Store.
func (w *WAL) PutKeyMaterial(rec KeyRecord) error {
	return w.append(recKey, rec)
}

// KeyMaterial implements Store: latest record per (scope, party), sorted.
// The NUL separator sorts below every byte, so the joined key orders as
// the pair does.
func (w *WAL) KeyMaterial() ([]KeyRecord, error) {
	return latestRecords(w, recKey, "key", one[KeyRecord], func(k KeyRecord) string { return k.Scope + "\x00" + k.Party })
}

// PutCheckpoint implements Store: append, fsync, then publish — a crash
// at any point leaves either the previous or the new checkpoint intact,
// never a half-written resume point (a torn record is cut by replay).
func (w *WAL) PutCheckpoint(cp Checkpoint) error {
	w.lock()
	defer w.unlock()
	if err := w.appendLocked(recCheckpoint, cp); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: WAL sync: %w", err)
	}
	c := cp
	w.checkpoint = &c
	return nil
}

// LastCheckpoint implements Store.
func (w *WAL) LastCheckpoint() (Checkpoint, bool, error) {
	w.lock()
	defer w.unlock()
	if w.closed {
		return Checkpoint{}, false, ErrClosed
	}
	if w.checkpoint == nil {
		return Checkpoint{}, false, nil
	}
	return *w.checkpoint, true, nil
}

// Sync implements Store.
func (w *WAL) Sync() error {
	w.lock()
	defer w.unlock()
	if w.closed {
		return ErrClosed
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: WAL sync: %w", err)
	}
	return nil
}

// Close implements Store: fsync then close the segment.
func (w *WAL) Close() error {
	w.lock()
	defer w.unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return fmt.Errorf("store: WAL sync on close: %w", err)
	}
	return w.f.Close()
}
