// Package gc implements Yao garbled circuits for the light-weight secure
// computations in PEM — most importantly the secure comparison of the
// masked aggregates Rb and Rs in Private Market Evaluation (Protocol 2),
// which the paper delegates to a FAIRPLAY-style system.
//
// The garbling scheme uses 128-bit wire labels with point-and-permute and
// the free-XOR optimization (XOR and NOT gates cost nothing to garble or
// evaluate); non-XOR gates are four-row tables encrypted under a SHA-256
// based key-derivation of the two input labels. A classic greater-than
// comparator (one AND per bit) and Protocol 2's sign-of-difference
// comparator (one AND per bit but the top one) are the circuit builders, and
// Garbler/Evaluator runners execute the two-party protocol over a
// transport.Conn with wire labels delivered through the ot package.
package gc

import (
	"errors"
	"fmt"
)

// GateKind enumerates supported gate types.
type GateKind uint8

// Supported gates. XOR and NOT are free under free-XOR garbling; AND costs
// one four-row table.
const (
	GateXOR GateKind = iota + 1
	GateAND
	GateNOT
)

// String implements fmt.Stringer.
func (k GateKind) String() string {
	switch k {
	case GateXOR:
		return "XOR"
	case GateAND:
		return "AND"
	case GateNOT:
		return "NOT"
	default:
		return fmt.Sprintf("GateKind(%d)", uint8(k))
	}
}

// truthTable returns the gate's output for each (a,b) input combination,
// indexed as a<<1|b. NOT ignores b.
func (k GateKind) truthTable() [4]bool {
	switch k {
	case GateXOR:
		return [4]bool{false, true, true, false}
	case GateAND:
		return [4]bool{false, false, false, true}
	case GateNOT:
		return [4]bool{true, true, false, false}
	default:
		return [4]bool{}
	}
}

// Gate is one gate. Wires are identified by dense indexes.
type Gate struct {
	// Kind is the gate's boolean function.
	Kind GateKind
	// In0 and In1 are the input wires (In1 unused for NOT).
	In0, In1 int
	// Out is the wire the gate drives.
	Out int
}

// Circuit is a boolean circuit with two input bundles: the garbler's bits
// and the evaluator's bits.
type Circuit struct {
	// NumWires is the total number of wires. Wires
	// [0, len(GarblerInputs)+len(EvaluatorInputs)) are inputs.
	NumWires int
	// GarblerInput[i] is the wire carrying the garbler's i-th input bit.
	GarblerInput []int
	// EvaluatorInput[i] is the wire carrying the evaluator's i-th bit.
	EvaluatorInput []int
	// Outputs lists the circuit output wires.
	Outputs []int
	// Gates in topological order.
	Gates []Gate
}

// Validate checks structural sanity: wire indexes in range, gates
// topologically ordered, inputs not driven by gates.
func (c *Circuit) Validate() error {
	if c.NumWires <= 0 {
		return errors.New("gc: circuit has no wires")
	}
	numInputs := len(c.GarblerInput) + len(c.EvaluatorInput)
	driven := make([]bool, c.NumWires)
	seen := make(map[int]bool, numInputs)
	for _, w := range c.GarblerInput {
		if w < 0 || w >= c.NumWires {
			return fmt.Errorf("gc: garbler input wire %d out of range", w)
		}
		if seen[w] {
			return fmt.Errorf("gc: duplicate input wire %d", w)
		}
		seen[w] = true
		driven[w] = true
	}
	for _, w := range c.EvaluatorInput {
		if w < 0 || w >= c.NumWires {
			return fmt.Errorf("gc: evaluator input wire %d out of range", w)
		}
		if seen[w] {
			return fmt.Errorf("gc: duplicate input wire %d", w)
		}
		seen[w] = true
		driven[w] = true
	}
	for i, g := range c.Gates {
		switch g.Kind {
		case GateXOR, GateAND, GateNOT:
		default:
			return fmt.Errorf("gc: gate %d has unknown kind %d", i, g.Kind)
		}
		if g.In0 < 0 || g.In0 >= c.NumWires || !driven[g.In0] {
			return fmt.Errorf("gc: gate %d input0 wire %d undriven", i, g.In0)
		}
		if g.Kind != GateNOT {
			if g.In1 < 0 || g.In1 >= c.NumWires || !driven[g.In1] {
				return fmt.Errorf("gc: gate %d input1 wire %d undriven", i, g.In1)
			}
		}
		if g.Out < 0 || g.Out >= c.NumWires {
			return fmt.Errorf("gc: gate %d output wire %d out of range", i, g.Out)
		}
		if driven[g.Out] {
			return fmt.Errorf("gc: gate %d redrives wire %d", i, g.Out)
		}
		driven[g.Out] = true
	}
	for _, w := range c.Outputs {
		if w < 0 || w >= c.NumWires || !driven[w] {
			return fmt.Errorf("gc: output wire %d undriven", w)
		}
	}
	return nil
}

// EvalPlain evaluates the circuit on plaintext bits — the reference
// implementation used by property tests to validate garbled evaluation.
func (c *Circuit) EvalPlain(garblerBits, evaluatorBits []bool) ([]bool, error) {
	if len(garblerBits) != len(c.GarblerInput) {
		return nil, fmt.Errorf("gc: got %d garbler bits, want %d", len(garblerBits), len(c.GarblerInput))
	}
	if len(evaluatorBits) != len(c.EvaluatorInput) {
		return nil, fmt.Errorf("gc: got %d evaluator bits, want %d", len(evaluatorBits), len(c.EvaluatorInput))
	}
	vals := make([]bool, c.NumWires)
	for i, w := range c.GarblerInput {
		vals[w] = garblerBits[i]
	}
	for i, w := range c.EvaluatorInput {
		vals[w] = evaluatorBits[i]
	}
	for _, g := range c.Gates {
		tt := g.Kind.truthTable()
		a, b := vals[g.In0], false
		if g.Kind != GateNOT {
			b = vals[g.In1]
		}
		idx := 0
		if a {
			idx |= 2
		}
		if b {
			idx |= 1
		}
		vals[g.Out] = tt[idx]
	}
	out := make([]bool, len(c.Outputs))
	for i, w := range c.Outputs {
		out[i] = vals[w]
	}
	return out, nil
}

// NonFreeGates counts the gates that require garbled tables (AND).
func (c *Circuit) NonFreeGates() int {
	n := 0
	for _, g := range c.Gates {
		if g.Kind == GateAND {
			n++
		}
	}
	return n
}

// builder helps construct circuits programmatically.
type builder struct {
	c Circuit
}

func newBuilder() *builder { return &builder{} }

func (b *builder) wire() int {
	w := b.c.NumWires
	b.c.NumWires++
	return w
}

func (b *builder) garblerInputs(n int) []int {
	ws := make([]int, n)
	for i := range ws {
		ws[i] = b.wire()
	}
	b.c.GarblerInput = append(b.c.GarblerInput, ws...)
	return ws
}

func (b *builder) evaluatorInputs(n int) []int {
	ws := make([]int, n)
	for i := range ws {
		ws[i] = b.wire()
	}
	b.c.EvaluatorInput = append(b.c.EvaluatorInput, ws...)
	return ws
}

func (b *builder) gate2(kind GateKind, in0, in1 int) int {
	out := b.wire()
	b.c.Gates = append(b.c.Gates, Gate{Kind: kind, In0: in0, In1: in1, Out: out})
	return out
}

func (b *builder) xor(a, x int) int { return b.gate2(GateXOR, a, x) }
func (b *builder) and(a, x int) int { return b.gate2(GateAND, a, x) }

func (b *builder) not(a int) int {
	out := b.wire()
	b.c.Gates = append(b.c.Gates, Gate{Kind: GateNOT, In0: a, Out: out})
	return out
}

// greaterThan appends the comparator [A > B] over the equal-width bundles
// a (garbler) and e (evaluator), bit 0 least significant, and returns its
// output wire. It scans from LSB to MSB maintaining
// c' = a_i ⊕ ((a_i ⊕ c) ∧ (b_i ⊕ c)), costing exactly one AND per bit
// under free-XOR.
func (b *builder) greaterThan(a, e []int) int {
	// c starts at 0. We avoid a constant wire by special-casing the first
	// bit: c1 = a0 ⊕ ((a0 ⊕ 0) ∧ (b0 ⊕ 0)) = a0 ⊕ (a0 ∧ b0) — i.e. a0 AND
	// NOT b0, but expressed with the same AND count.
	nb0 := b.not(e[0])
	c := b.and(a[0], nb0) // a0 ∧ ¬b0 = [a0 > b0]
	for i := 1; i < len(a); i++ {
		ax := b.xor(a[i], c)
		bx := b.xor(e[i], c)
		t := b.and(ax, bx)
		c = b.xor(a[i], t)
	}
	return c
}

// comparatorOf builds a one-output circuit over bits garbler and bits
// evaluator input wires; output derives the output wire from them.
func comparatorOf(bits, minBits int, output func(b *builder, a, e []int) int) (*Circuit, error) {
	if bits < minBits || bits > 512 {
		return nil, fmt.Errorf("gc: comparator width %d out of range", bits)
	}
	b := newBuilder()
	a := b.garblerInputs(bits)
	e := b.evaluatorInputs(bits)
	b.c.Outputs = []int{output(b, a, e)}
	circ := b.c
	if err := circ.Validate(); err != nil {
		return nil, err
	}
	return &circ, nil
}

// BuildGreaterThan constructs a comparator computing [A > B] where A is the
// garbler's bits-bit unsigned integer and B the evaluator's: bits ANDs.
func BuildGreaterThan(bits int) (*Circuit, error) {
	return comparatorOf(bits, 1, (*builder).greaterThan)
}

// BuildDifferenceSign constructs Protocol 2's comparator: [x > y] for two
// totals whose difference is public-bounded, |x − y| < 2^(bits−1), from
// A = x mod 2^bits (garbler) and B = y mod 2^bits (evaluator). Then x > y
// exactly when (A − B − 1) mod 2^bits has its top bit clear, and that
// bit's complement is a_top ⊕ b_top ⊕ [A_low > B_low]: the greater-than
// chain over the low bits−1 bits and two free XORs, bits−1 ANDs in all.
func BuildDifferenceSign(bits int) (*Circuit, error) {
	return comparatorOf(bits, 2, func(b *builder, a, e []int) int {
		top := len(a) - 1
		return b.xor(b.xor(a[top], e[top]), b.greaterThan(a[:top], e[:top]))
	})
}
