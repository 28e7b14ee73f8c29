package gc

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// LabelSize is the wire-label length in bytes (128-bit labels).
const LabelSize = 16

// Label is a garbled wire label. The low bit of byte 0 is the
// point-and-permute select bit.
type Label [LabelSize]byte

func (l Label) permuteBit() int { return int(l[0] & 1) }

func (l Label) xor(o Label) Label {
	var out Label
	for i := range l {
		out[i] = l[i] ^ o[i]
	}
	return out
}

// Options controls garbling behaviour. XOR and NOT gates are always free
// (free-XOR) and every other gate is a four-row point-and-permute table.
type Options struct {
	// Random overrides the label randomness source (defaults to
	// crypto/rand).
	Random io.Reader
}

// Garbled is the material sent to the evaluator: encrypted gate tables (for
// non-free gates, in gate order) and the output decode bits.
type Garbled struct {
	// Tables holds 4 rows per gate.
	Tables [][]Label
	// OutputPerm[i] is the permute bit of the FALSE label of output wire i;
	// the evaluator decodes bit = permute(activeLabel) ⊕ OutputPerm[i].
	OutputPerm []byte
}

// Assignment holds the garbler's secret label pairs for the input wires.
type Assignment struct {
	// Garbler[i] is the (false,true) label pair of the garbler's i-th bit.
	Garbler [][2]Label
	// Evaluator[i] is the label pair of the evaluator's i-th bit, to be
	// transferred via OT.
	Evaluator [][2]Label
}

// gateHash derives the row pad H(A, B, gateIndex).
func gateHash(a, b Label, gate int) Label {
	h := sha256.New()
	h.Write(a[:])
	h.Write(b[:])
	var idx [8]byte
	binary.BigEndian.PutUint64(idx[:], uint64(gate))
	h.Write(idx[:])
	var out Label
	copy(out[:], h.Sum(nil))
	return out
}

func randomLabel(random io.Reader) (Label, error) {
	var l Label
	if _, err := io.ReadFull(random, l[:]); err != nil {
		return Label{}, fmt.Errorf("gc: draw label: %w", err)
	}
	return l, nil
}

// Garble garbles the circuit, returning the evaluator material and the
// garbler's input label pairs.
func Garble(c *Circuit, opts Options) (*Garbled, *Assignment, error) {
	if err := c.Validate(); err != nil {
		return nil, nil, err
	}
	random := opts.Random
	if random == nil {
		random = rand.Reader
	}

	// Global free-XOR offset; select bit forced to 1 so the permute bits of
	// a label pair always differ.
	delta, err := randomLabel(random)
	if err != nil {
		return nil, nil, err
	}
	delta[0] |= 1

	false0 := make([]Label, c.NumWires) // FALSE label per wire

	newWireLabel := func(w int) error {
		l, err := randomLabel(random)
		if err != nil {
			return err
		}
		false0[w] = l
		return nil
	}

	for _, w := range c.GarblerInput {
		if err := newWireLabel(w); err != nil {
			return nil, nil, err
		}
	}
	for _, w := range c.EvaluatorInput {
		if err := newWireLabel(w); err != nil {
			return nil, nil, err
		}
	}

	trueLabel := func(w int) Label { return false0[w].xor(delta) }

	g := &Garbled{}
	for gi, gate := range c.Gates {
		switch gate.Kind {
		case GateXOR:
			false0[gate.Out] = false0[gate.In0].xor(false0[gate.In1])
			continue
		case GateNOT:
			// FALSE of output is TRUE of input.
			false0[gate.Out] = trueLabel(gate.In0)
			continue
		}
		if err := newWireLabel(gate.Out); err != nil {
			return nil, nil, err
		}

		tt := gate.Kind.truthTable()
		table := make([]Label, 4)
		for _, va := range []int{0, 1} {
			for _, vb := range []int{0, 1} {
				la := false0[gate.In0]
				if va == 1 {
					la = trueLabel(gate.In0)
				}
				lb := false0[gate.In1]
				if vb == 1 {
					lb = trueLabel(gate.In1)
				}
				outLabel := false0[gate.Out]
				if tt[va<<1|vb] {
					outLabel = trueLabel(gate.Out)
				}
				table[la.permuteBit()<<1|lb.permuteBit()] = gateHash(la, lb, gi).xor(outLabel)
			}
		}
		g.Tables = append(g.Tables, table)
	}

	g.OutputPerm = make([]byte, len(c.Outputs))
	for i, w := range c.Outputs {
		g.OutputPerm[i] = byte(false0[w].permuteBit())
	}

	asg := &Assignment{
		Garbler:   make([][2]Label, len(c.GarblerInput)),
		Evaluator: make([][2]Label, len(c.EvaluatorInput)),
	}
	for i, w := range c.GarblerInput {
		asg.Garbler[i] = [2]Label{false0[w], trueLabel(w)}
	}
	for i, w := range c.EvaluatorInput {
		asg.Evaluator[i] = [2]Label{false0[w], trueLabel(w)}
	}
	return g, asg, nil
}

// Evaluate walks the garbled circuit with the active input labels and
// returns the active output labels. garblerLabels/evaluatorLabels are the
// single active label per input bit, in input order. useFreeXOR must be
// true: free-XOR is the only garbling scheme.
func Evaluate(c *Circuit, g *Garbled, garblerLabels, evaluatorLabels []Label, useFreeXOR bool) ([]Label, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if !useFreeXOR {
		return nil, errors.New("gc: free-XOR is the only garbling scheme")
	}
	if len(garblerLabels) != len(c.GarblerInput) {
		return nil, fmt.Errorf("gc: got %d garbler labels, want %d", len(garblerLabels), len(c.GarblerInput))
	}
	if len(evaluatorLabels) != len(c.EvaluatorInput) {
		return nil, fmt.Errorf("gc: got %d evaluator labels, want %d", len(evaluatorLabels), len(c.EvaluatorInput))
	}

	active := make([]Label, c.NumWires)
	for i, w := range c.GarblerInput {
		active[w] = garblerLabels[i]
	}
	for i, w := range c.EvaluatorInput {
		active[w] = evaluatorLabels[i]
	}

	tableIdx := 0
	for gi, gate := range c.Gates {
		switch gate.Kind {
		case GateXOR:
			active[gate.Out] = active[gate.In0].xor(active[gate.In1])
			continue
		case GateNOT:
			active[gate.Out] = active[gate.In0] // label carries through
			continue
		}
		if tableIdx >= len(g.Tables) {
			return nil, errors.New("gc: garbled material has too few tables")
		}
		table := g.Tables[tableIdx]
		if len(table) != 4 {
			return nil, fmt.Errorf("gc: table %d has %d rows, want 4", tableIdx, len(table))
		}
		la, lb := active[gate.In0], active[gate.In1]
		active[gate.Out] = table[la.permuteBit()<<1|lb.permuteBit()].xor(gateHash(la, lb, gi))
		tableIdx++
	}
	if tableIdx != len(g.Tables) {
		return nil, errors.New("gc: garbled material has too many tables")
	}

	out := make([]Label, len(c.Outputs))
	for i, w := range c.Outputs {
		out[i] = active[w]
	}
	return out, nil
}

// DecodeOutputs converts active output labels into cleartext bits using the
// garbler-provided permute bits.
func DecodeOutputs(g *Garbled, outLabels []Label) ([]bool, error) {
	if len(outLabels) != len(g.OutputPerm) {
		return nil, fmt.Errorf("gc: got %d output labels, want %d", len(outLabels), len(g.OutputPerm))
	}
	bits := make([]bool, len(outLabels))
	for i, l := range outLabels {
		bits[i] = l.permuteBit() != int(g.OutputPerm[i])
	}
	return bits, nil
}
