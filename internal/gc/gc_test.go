package gc

import (
	"context"
	"encoding/binary"
	"io"
	"math"
	mrand "math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/pem-go/pem/internal/ot"
	"github.com/pem-go/pem/internal/transport"
)

func TestGreaterThanPlainTruthTable(t *testing.T) {
	circ, err := BuildGreaterThan(4)
	if err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < 16; a++ {
		for b := uint64(0); b < 16; b++ {
			out, err := circ.EvalPlain(uintToBits(a, 4), uintToBits(b, 4))
			if err != nil {
				t.Fatal(err)
			}
			if out[0] != (a > b) {
				t.Errorf("GT(%d, %d) = %v, want %v", a, b, out[0], a > b)
			}
		}
	}
}

// buildEquals is the equality circuit [A == B], an AND chain over XNORs: a
// second circuit shape, with a NOT on every bit, for the garbling tests.
func buildEquals(t *testing.T, bits int) *Circuit {
	t.Helper()
	b := newBuilder()
	a := b.garblerInputs(bits)
	e := b.evaluatorInputs(bits)
	acc := b.not(b.xor(a[0], e[0]))
	for i := 1; i < bits; i++ {
		acc = b.and(acc, b.not(b.xor(a[i], e[i])))
	}
	b.c.Outputs = []int{acc}
	if err := b.c.Validate(); err != nil {
		t.Fatal(err)
	}
	return &b.c
}

func TestEqualsPlainTruthTable(t *testing.T) {
	circ := buildEquals(t, 3)
	for a := uint64(0); a < 8; a++ {
		for b := uint64(0); b < 8; b++ {
			out, err := circ.EvalPlain(uintToBits(a, 3), uintToBits(b, 3))
			if err != nil {
				t.Fatal(err)
			}
			if out[0] != (a == b) {
				t.Errorf("EQ(%d, %d) = %v, want %v", a, b, out[0], a == b)
			}
		}
	}
}

func TestGreaterThanAndCount(t *testing.T) {
	// The comparator must cost exactly one AND per bit under free-XOR.
	circ, err := BuildGreaterThan(64)
	if err != nil {
		t.Fatal(err)
	}
	if got := circ.NonFreeGates(); got != 64 {
		t.Errorf("64-bit comparator uses %d non-free gates, want 64", got)
	}
}

func TestCircuitValidateRejectsBadCircuits(t *testing.T) {
	cases := map[string]*Circuit{
		"no wires": {},
		"input out of range": {
			NumWires:     1,
			GarblerInput: []int{5},
		},
		"gate uses undriven wire": {
			NumWires:     3,
			GarblerInput: []int{0},
			Gates:        []Gate{{Kind: GateAND, In0: 0, In1: 1, Out: 2}},
		},
		"gate redrives wire": {
			NumWires:       3,
			GarblerInput:   []int{0},
			EvaluatorInput: []int{1},
			Gates:          []Gate{{Kind: GateAND, In0: 0, In1: 1, Out: 0}},
		},
		"unknown gate kind": {
			NumWires:       3,
			GarblerInput:   []int{0},
			EvaluatorInput: []int{1},
			Gates:          []Gate{{Kind: GateKind(99), In0: 0, In1: 1, Out: 2}},
		},
		"undriven output": {
			NumWires:     2,
			GarblerInput: []int{0},
			Outputs:      []int{1},
		},
	}
	for name, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid circuit", name)
		}
	}
}

// garbleEvalLocal garbles and evaluates the circuit in-process for given
// plaintext inputs.
func garbleEvalLocal(t *testing.T, circ *Circuit, gBits, eBits []bool, opts Options) []bool {
	t.Helper()
	garbled, asg, err := Garble(circ, opts)
	if err != nil {
		t.Fatal(err)
	}
	gl := make([]Label, len(gBits))
	for i, b := range gBits {
		if b {
			gl[i] = asg.Garbler[i][1]
		} else {
			gl[i] = asg.Garbler[i][0]
		}
	}
	el := make([]Label, len(eBits))
	for i, b := range eBits {
		if b {
			el[i] = asg.Evaluator[i][1]
		} else {
			el[i] = asg.Evaluator[i][0]
		}
	}
	outLabels, err := Evaluate(circ, garbled, gl, el, true)
	if err != nil {
		t.Fatal(err)
	}
	bits, err := DecodeOutputs(garbled, outLabels)
	if err != nil {
		t.Fatal(err)
	}
	return bits
}

func TestGarbledMatchesPlainProperty(t *testing.T) {
	circ, err := BuildGreaterThan(16)
	if err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(42))
	if err := quick.Check(func(a, b uint16) bool {
		gBits := uintToBits(uint64(a), 16)
		eBits := uintToBits(uint64(b), 16)
		got := garbleEvalLocal(t, circ, gBits, eBits, Options{Random: rng})
		return got[0] == (a > b)
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEqualsGarbled(t *testing.T) {
	circ := buildEquals(t, 8)
	rng := mrand.New(mrand.NewSource(44))
	for _, pair := range [][2]uint64{{7, 7}, {7, 9}, {0, 0}, {255, 0}} {
		got := garbleEvalLocal(t, circ, uintToBits(pair[0], 8), uintToBits(pair[1], 8), Options{Random: rng})
		if got[0] != (pair[0] == pair[1]) {
			t.Errorf("EQ(%d,%d) = %v", pair[0], pair[1], got[0])
		}
	}
}

func TestEvaluateRejectsWrongLabelCounts(t *testing.T) {
	circ, err := BuildGreaterThan(4)
	if err != nil {
		t.Fatal(err)
	}
	garbled, asg, err := Garble(circ, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = asg
	if _, err := Evaluate(circ, garbled, nil, nil, true); err == nil {
		t.Error("Evaluate with missing labels: want error")
	}
}

func TestMaterialRoundTrip(t *testing.T) {
	circ, err := BuildGreaterThan(8)
	if err != nil {
		t.Fatal(err)
	}
	garbled, asg, err := Garble(circ, Options{})
	if err != nil {
		t.Fatal(err)
	}
	active := make([]Label, 8)
	for i := range active {
		active[i] = asg.Garbler[i][0]
	}
	raw := encodeMaterial(garbled, active)
	if raw[0] != materialFlags {
		t.Errorf("scheme flags %#x, want %#x", raw[0], materialFlags)
	}
	g2, labels, err := decodeMaterial(raw, circ)
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.Tables) != len(garbled.Tables) {
		t.Error("tables lost")
	}
	for i := range labels {
		if labels[i] != active[i] {
			t.Errorf("label %d mismatch", i)
		}
	}
}

func TestDecodeMaterialRejectsCorruption(t *testing.T) {
	circ, err := BuildGreaterThan(4)
	if err != nil {
		t.Fatal(err)
	}
	garbled, asg, err := Garble(circ, Options{})
	if err != nil {
		t.Fatal(err)
	}
	active := make([]Label, 4)
	for i := range active {
		active[i] = asg.Garbler[i][0]
	}
	raw := encodeMaterial(garbled, active)
	for _, cut := range []int{0, 1, 3, 10, len(raw) - 1} {
		if _, _, err := decodeMaterial(raw[:cut], circ); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// The scheme byte is always 0x01 (free-XOR, four-row tables); the
	// retired GRR3 (0x03) and table-XOR (0x00) schemes are corruption.
	for _, flags := range []byte{0x00, 0x02, 0x03, 0xff} {
		bad := append([]byte{flags}, raw[1:]...)
		if _, _, err := decodeMaterial(bad, circ); err == nil {
			t.Errorf("scheme flags %#x accepted", flags)
		}
	}
	// Wrong circuit (different width) must be rejected.
	other, err := BuildGreaterThan(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodeMaterial(raw, other); err == nil {
		t.Error("material for wrong circuit accepted")
	}
}

// runSecureCompare drives both protocol roles over an in-memory bus. The
// roles run concurrently, so each gets its own PRNG derived from the
// caller's seeded source (math/rand readers are not goroutine-safe).
func runSecureCompare(t *testing.T, a, b uint64, bits int, opts ProtocolOptions) (CompareResult, CompareResult) {
	t.Helper()
	bus := transport.NewBus(nil)
	gConn := bus.MustRegister("garbler")
	eConn := bus.MustRegister("evaluator")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	gOpts, eOpts := opts, opts
	if opts.Random != nil {
		seeded := mrand.New(mrand.NewSource(int64(mustRead64(t, opts.Random))))
		gOpts.Random = mrand.New(mrand.NewSource(seeded.Int63()))
		eOpts.Random = mrand.New(mrand.NewSource(seeded.Int63()))
	}

	type res struct {
		r   CompareResult
		err error
	}
	gc := make(chan res, 1)
	go func() {
		r, err := SecureCompareGarbler(ctx, gConn, "evaluator", "cmp", a, bits, gOpts)
		gc <- res{r, err}
	}()
	er, err := SecureCompareEvaluator(ctx, eConn, "garbler", "cmp", b, bits, eOpts)
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	gr := <-gc
	if gr.err != nil {
		t.Fatalf("garbler: %v", gr.err)
	}
	return gr.r, er
}

// mustRead64 draws eight bytes from r as a derivation seed.
func mustRead64(t *testing.T, r io.Reader) uint64 {
	t.Helper()
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		t.Fatal(err)
	}
	return binary.BigEndian.Uint64(buf[:])
}

func TestSecureCompareProtocol(t *testing.T) {
	opts := ProtocolOptions{Random: mrand.New(mrand.NewSource(7))}
	cases := []struct {
		a, b uint64
		want CompareResult
	}{
		{5, 3, LeftGreater},
		{3, 5, NotGreater},
		{7, 7, NotGreater},
		{0, 0, NotGreater},
		{1 << 40, (1 << 40) - 1, LeftGreater},
	}
	for _, c := range cases {
		gr, er := runSecureCompare(t, c.a, c.b, 48, opts)
		if gr != c.want || er != c.want {
			t.Errorf("compare(%d, %d) = garbler %v / evaluator %v, want %v", c.a, c.b, gr, er, c.want)
		}
	}
}

// TestSecureCompareRandomizedAgainstNative runs 200 seeded full-width
// comparisons — the boundary values and equal pairs first, then uniform
// draws — against the native operator.
func TestSecureCompareRandomizedAgainstNative(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: full protocol rounds")
	}
	opts := ProtocolOptions{Random: mrand.New(mrand.NewSource(9))}
	rng := mrand.New(mrand.NewSource(10))
	pairs := [][2]uint64{
		{0, 0}, {math.MaxUint64, math.MaxUint64}, {0, math.MaxUint64}, {math.MaxUint64, 0},
		{1, 0}, {0, 1}, {math.MaxUint64, math.MaxUint64 - 1}, {math.MaxUint64 - 1, math.MaxUint64},
		{1 << 63, 1<<63 - 1}, {1<<63 - 1, 1 << 63},
	}
	for len(pairs) < 200 {
		a, b := rng.Uint64(), rng.Uint64()
		if len(pairs)%10 == 0 {
			b = a // equal values at every magnitude, not only the extremes
		}
		pairs = append(pairs, [2]uint64{a, b})
	}
	for _, p := range pairs {
		want := NotGreater
		if p[0] > p[1] {
			want = LeftGreater
		}
		gr, er := runSecureCompare(t, p[0], p[1], 64, opts)
		if gr != want || er != want {
			t.Errorf("compare(%d, %d) = %v / %v, want %v", p[0], p[1], gr, er, want)
		}
	}
}

// sizeConn records the payload length of every frame its party sends.
type sizeConn struct {
	transport.Conn
	mu    *sync.Mutex
	sizes map[string]int
}

func (c sizeConn) Send(ctx context.Context, to, tag string, payload []byte) error {
	c.mu.Lock()
	c.sizes[tag] = len(payload)
	c.mu.Unlock()
	return c.Conn.Send(ctx, to, tag, payload)
}

// TestCompareFrameLengths pins the size of every frame of the 64-bit
// comparison (ROADMAP's wire-format item): five messages whose lengths
// depend on the width and the garbling scheme alone, never on the values
// compared or the randomness drawn.
func TestCompareFrameLengths(t *testing.T) {
	for _, tc := range []struct {
		name     string
		opts     ProtocolOptions
		material int
	}{
		// flags + (count, 64 tables × rows × 16) + (count, 1 packed output
		// bit) + (count, 64 garbler labels × 16)
		{"four-row", ProtocolOptions{}, 1 + 4 + 64*4*16 + 4 + 1 + 4 + 64*16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bus := transport.NewBus(nil)
			sizes := map[string]int{}
			var mu sync.Mutex
			gConn := sizeConn{bus.MustRegister("garbler"), &mu, sizes}
			eConn := sizeConn{bus.MustRegister("evaluator"), &mu, sizes}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()

			errc := make(chan error, 1)
			go func() {
				_, err := SecureCompareGarbler(ctx, gConn, "evaluator", "w7/", 0xdeadbeef, 64, tc.opts)
				errc <- err
			}()
			if _, err := SecureCompareEvaluator(ctx, eConn, "garbler", "w7/", 42, 64, tc.opts); err != nil {
				t.Fatalf("evaluator: %v", err)
			}
			if err := <-errc; err != nil {
				t.Fatalf("garbler: %v", err)
			}
			want := map[string]int{
				"w7/gc/material":   tc.material,
				"w7/gcot/base/A":   33,
				"w7/gcot/base/B":   64 * 33,
				"w7/gcot/base/cts": 64 * 2 * ot.KeySize,
				"w7/gc/result":     1,
			}
			if len(sizes) != len(want) {
				t.Errorf("%d distinct frames on the wire, want %d: %v", len(sizes), len(want), sizes)
			}
			for tag, n := range want {
				if sizes[tag] != n {
					t.Errorf("frame %q is %d bytes, want %d", tag, sizes[tag], n)
				}
			}
		})
	}
}

// TestComparatorBuiltOncePerWidth: both roles of every comparison of one
// width share one read-only circuit.
func TestComparatorBuiltOncePerWidth(t *testing.T) {
	a, err := comparator(24)
	if err != nil {
		t.Fatal(err)
	}
	b, err := comparator(24)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("comparator(24) built twice")
	}
	if c, err := comparator(25); err != nil || c == a {
		t.Errorf("comparator(25) = %p, %v; want a circuit of its own", c, err)
	}
	if _, err := comparator(0); err == nil {
		t.Error("comparator(0) accepted")
	}
}

func TestGateKindString(t *testing.T) {
	if GateXOR.String() != "XOR" || GateAND.String() != "AND" || GateNOT.String() != "NOT" {
		t.Error("GateKind strings wrong")
	}
	if GateKind(42).String() == "" {
		t.Error("unknown kind must still render")
	}
}

func BenchmarkGarbleComparator64(b *testing.B) {
	circ, err := BuildGreaterThan(64)
	if err != nil {
		b.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Garble(circ, Options{Random: rng}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateComparator64(b *testing.B) {
	circ, err := BuildGreaterThan(64)
	if err != nil {
		b.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(1))
	garbled, asg, err := Garble(circ, Options{Random: rng})
	if err != nil {
		b.Fatal(err)
	}
	gl := make([]Label, 64)
	el := make([]Label, 64)
	for i := 0; i < 64; i++ {
		gl[i] = asg.Garbler[i][i%2]
		el[i] = asg.Evaluator[i][(i+1)%2]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(circ, garbled, gl, el, true); err != nil {
			b.Fatal(err)
		}
	}
}
