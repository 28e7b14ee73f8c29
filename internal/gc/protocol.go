package gc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"github.com/pem-go/pem/internal/ot"
	"github.com/pem-go/pem/internal/transport"
)

// Protocol tags (namespaced by a caller-chosen session string).
const (
	tagMaterial = "gc/material"
	tagResult   = "gc/result"
)

// ProtocolOptions configures a two-party garbled-circuit execution.
type ProtocolOptions struct {
	// Group is the handle of the label OTs' group. There is one group
	// (see ot.Group), so nil and every other value mean the same thing;
	// the field remains for callers that set it.
	Group *ot.Group
	// Random is the randomness source (defaults to crypto/rand).
	Random io.Reader
}

// RunGarbler executes the garbler role of a two-party secure computation of
// circ over conn with the given peer: it garbles the circuit, ships the
// material and its own active input labels, serves the evaluator's labels
// via OT, and receives the (mutually learned) output bits back.
func RunGarbler(ctx context.Context, conn transport.Conn, peer, session string, circ *Circuit, inputBits []bool, opts ProtocolOptions) ([]bool, error) {
	if len(inputBits) != len(circ.GarblerInput) {
		return nil, fmt.Errorf("gc: garbler has %d bits, circuit wants %d", len(inputBits), len(circ.GarblerInput))
	}
	garbled, asg, err := Garble(circ, Options{Random: opts.Random})
	if err != nil {
		return nil, fmt.Errorf("gc: garble: %w", err)
	}

	// Ship tables, output permute bits and the garbler's active labels.
	active := make([]Label, len(inputBits))
	for i, bit := range inputBits {
		if bit {
			active[i] = asg.Garbler[i][1]
		} else {
			active[i] = asg.Garbler[i][0]
		}
	}
	material := encodeMaterial(garbled, active)
	if err := conn.Send(ctx, peer, session+tagMaterial, material); err != nil {
		return nil, fmt.Errorf("gc: send material: %w", err)
	}

	// Serve the evaluator's input labels obliviously.
	pairs := make([]ot.Pair, len(asg.Evaluator))
	for i := range asg.Evaluator {
		pq := &asg.Evaluator[i]
		pairs[i] = ot.Pair{M0: pq[0][:], M1: pq[1][:]}
	}
	if err := ot.SendBase(ctx, conn, peer, session+"gc", opts.Group, opts.Random, pairs); err != nil {
		return nil, fmt.Errorf("gc: label OT: %w", err)
	}

	// The evaluator reports the decoded outputs so both parties learn the
	// result (standard semi-honest output sharing).
	raw, err := conn.Recv(ctx, peer, session+tagResult)
	if err != nil {
		return nil, fmt.Errorf("gc: recv result: %w", err)
	}
	bits, err := unpackBits(raw, len(circ.Outputs))
	transport.PutFrame(raw)
	return bits, err
}

// RunEvaluator executes the evaluator role: it receives the garbled
// material, fetches its input labels via OT, evaluates, decodes, reports
// the outputs back to the garbler, and returns them.
func RunEvaluator(ctx context.Context, conn transport.Conn, peer, session string, circ *Circuit, inputBits []bool, opts ProtocolOptions) ([]bool, error) {
	if len(inputBits) != len(circ.EvaluatorInput) {
		return nil, fmt.Errorf("gc: evaluator has %d bits, circuit wants %d", len(inputBits), len(circ.EvaluatorInput))
	}
	raw, err := conn.Recv(ctx, peer, session+tagMaterial)
	if err != nil {
		return nil, fmt.Errorf("gc: recv material: %w", err)
	}
	garbled, garblerLabels, err := decodeMaterial(raw, circ)
	transport.PutFrame(raw) // decodeMaterial copied everything out
	if err != nil {
		return nil, err
	}

	labelBytes, err := ot.RecvBase(ctx, conn, peer, session+"gc", opts.Group, opts.Random, inputBits)
	if err != nil {
		return nil, fmt.Errorf("gc: label OT: %w", err)
	}
	evalLabels := make([]Label, len(labelBytes))
	for i, b := range labelBytes {
		copy(evalLabels[i][:], b)
	}

	outLabels, err := Evaluate(circ, garbled, garblerLabels, evalLabels, true)
	if err != nil {
		return nil, fmt.Errorf("gc: evaluate: %w", err)
	}
	bits, err := DecodeOutputs(garbled, outLabels)
	if err != nil {
		return nil, err
	}
	if err := conn.Send(ctx, peer, session+tagResult, packBits(bits)); err != nil {
		return nil, fmt.Errorf("gc: send result: %w", err)
	}
	return bits, nil
}

// --- wire encoding of the garbled material ---
//
//	u8  scheme flags: always materialFlags (bit0 = free-XOR)
//	u32 numTables | tables (4 × LabelSize each)
//	u32 numOutputs | permute bits (packed)
//	u32 numGarblerLabels | labels (LabelSize each)

// materialFlags is the scheme byte: free-XOR, four-row tables. The byte
// stays on the wire so the frame keeps its length; any other value is
// rejected.
const materialFlags = 0x01

func encodeMaterial(g *Garbled, garblerActive []Label) []byte {
	size := 1 + 4 + len(g.Tables)*4*LabelSize + 4 + (len(g.OutputPerm)+7)/8 + 4 + len(garblerActive)*LabelSize
	buf := make([]byte, 0, size)
	buf = append(buf, materialFlags)
	var u32 [4]byte
	binary.BigEndian.PutUint32(u32[:], uint32(len(g.Tables)))
	buf = append(buf, u32[:]...)
	for _, t := range g.Tables {
		for _, row := range t {
			buf = append(buf, row[:]...)
		}
	}
	binary.BigEndian.PutUint32(u32[:], uint32(len(g.OutputPerm)))
	buf = append(buf, u32[:]...)
	packed := make([]byte, (len(g.OutputPerm)+7)/8)
	for i, b := range g.OutputPerm {
		if b != 0 {
			packed[i/8] |= 1 << (i % 8)
		}
	}
	buf = append(buf, packed...)
	binary.BigEndian.PutUint32(u32[:], uint32(len(garblerActive)))
	buf = append(buf, u32[:]...)
	for _, l := range garblerActive {
		buf = append(buf, l[:]...)
	}
	return buf
}

func decodeMaterial(raw []byte, circ *Circuit) (*Garbled, []Label, error) {
	fail := func(msg string) (*Garbled, []Label, error) {
		return nil, nil, errors.New("gc: bad material: " + msg)
	}
	if len(raw) < 1 {
		return fail("empty")
	}
	if raw[0] != materialFlags {
		return fail(fmt.Sprintf("scheme flags %#04x, want %#04x", raw[0], materialFlags))
	}
	raw = raw[1:]
	const rows = 4

	if len(raw) < 4 {
		return fail("truncated table count")
	}
	nTables := int(binary.BigEndian.Uint32(raw))
	raw = raw[4:]
	if nTables < 0 || len(raw) < nTables*rows*LabelSize {
		return fail("truncated tables")
	}
	g := &Garbled{Tables: make([][]Label, nTables)}
	for i := 0; i < nTables; i++ {
		g.Tables[i] = make([]Label, rows)
		for r := 0; r < rows; r++ {
			copy(g.Tables[i][r][:], raw[:LabelSize])
			raw = raw[LabelSize:]
		}
	}

	if len(raw) < 4 {
		return fail("truncated output count")
	}
	nOut := int(binary.BigEndian.Uint32(raw))
	raw = raw[4:]
	if nOut != len(circ.Outputs) {
		return fail("output count mismatch")
	}
	packedLen := (nOut + 7) / 8
	if len(raw) < packedLen {
		return fail("truncated output permute bits")
	}
	g.OutputPerm = make([]byte, nOut)
	for i := 0; i < nOut; i++ {
		if raw[i/8]&(1<<(i%8)) != 0 {
			g.OutputPerm[i] = 1
		}
	}
	raw = raw[packedLen:]

	if len(raw) < 4 {
		return fail("truncated garbler label count")
	}
	nLabels := int(binary.BigEndian.Uint32(raw))
	raw = raw[4:]
	if nLabels != len(circ.GarblerInput) {
		return fail("garbler label count mismatch")
	}
	if len(raw) != nLabels*LabelSize {
		return fail("truncated garbler labels")
	}
	labels := make([]Label, nLabels)
	for i := 0; i < nLabels; i++ {
		copy(labels[i][:], raw[:LabelSize])
		raw = raw[LabelSize:]
	}

	if nTables != circ.NonFreeGates() {
		return fail("table count mismatch with circuit")
	}
	return g, labels, nil
}

// packBits packs booleans LSB-first.
func packBits(bits []bool) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b {
			out[i/8] |= 1 << (i % 8)
		}
	}
	return out
}

// unpackBits reverses packBits for a known count.
func unpackBits(raw []byte, n int) ([]bool, error) {
	if len(raw) != (n+7)/8 {
		return nil, fmt.Errorf("gc: packed bits have %d bytes, want %d", len(raw), (n+7)/8)
	}
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = raw[i/8]&(1<<(i%8)) != 0
	}
	return bits, nil
}

// CompareResult is the outcome of a secure comparison.
type CompareResult int

// Comparison outcomes for SecureCompare.
const (
	// LeftGreater means the garbler's value is strictly greater.
	LeftGreater CompareResult = iota + 1
	// NotGreater means the garbler's value is less than or equal.
	NotGreater
)

// comparators holds the greater-than circuit of every width asked for so
// far (bits → *Circuit). A Circuit is read-only once built, so the two
// parties of every window of every engine share one per width instead of
// rebuilding it per comparison.
var comparators sync.Map

func comparator(bits int) (*Circuit, error) {
	if c, ok := comparators.Load(bits); ok {
		return c.(*Circuit), nil
	}
	c, err := BuildGreaterThan(bits)
	if err != nil {
		return nil, err
	}
	shared, _ := comparators.LoadOrStore(bits, c)
	return shared.(*Circuit), nil
}

// SecureCompareGarbler runs the millionaires comparison as the garbler with
// a bits-wide unsigned value, returning LeftGreater iff value > peer's.
func SecureCompareGarbler(ctx context.Context, conn transport.Conn, peer, session string, value uint64, bits int, opts ProtocolOptions) (CompareResult, error) {
	circ, err := comparator(bits)
	if err != nil {
		return 0, err
	}
	out, err := RunGarbler(ctx, conn, peer, session, circ, uintToBits(value, bits), opts)
	if err != nil {
		return 0, err
	}
	if out[0] {
		return LeftGreater, nil
	}
	return NotGreater, nil
}

// SecureCompareEvaluator runs the millionaires comparison as the evaluator.
// It returns LeftGreater iff the GARBLER's value is strictly greater (the
// same orientation as SecureCompareGarbler, so both parties agree).
func SecureCompareEvaluator(ctx context.Context, conn transport.Conn, peer, session string, value uint64, bits int, opts ProtocolOptions) (CompareResult, error) {
	circ, err := comparator(bits)
	if err != nil {
		return 0, err
	}
	out, err := RunEvaluator(ctx, conn, peer, session, circ, uintToBits(value, bits), opts)
	if err != nil {
		return 0, err
	}
	if out[0] {
		return LeftGreater, nil
	}
	return NotGreater, nil
}

// uintToBits expands v into bits booleans, LSB first.
func uintToBits(v uint64, bits int) []bool {
	out := make([]bool, bits)
	for i := 0; i < bits; i++ {
		out[i] = v&(1<<uint(i)) != 0
	}
	return out
}
