package gc

import (
	"context"
	"encoding/binary"
	"errors"
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

// entryPoints is the unsigned pair of roles or, with sign, the
// sign-of-difference pair.
func entryPoints(sign bool) (garbler, evaluator func(context.Context, transport.Conn, string, string, uint64, int, ProtocolOptions) (CompareResult, error)) {
	if sign {
		return SecureSignGarbler, SecureSignEvaluator
	}
	return SecureCompareGarbler, SecureCompareEvaluator
}

// runSecureCompare drives both roles of entryPoints(sign) over an in-memory
// bus. The roles run concurrently, so each gets its own PRNG derived from
// the caller's seeded source (math/rand readers are not goroutine-safe).
func runSecureCompare(t *testing.T, sign bool, a, b uint64, bits int, opts ProtocolOptions) (CompareResult, CompareResult) {
	t.Helper()
	garbler, evaluator := entryPoints(sign)
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
		r, err := garbler(ctx, gConn, "evaluator", "cmp", a, bits, gOpts)
		gc <- res{r, err}
	}()
	er, err := evaluator(ctx, eConn, "garbler", "cmp", b, bits, eOpts)
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
		gr, er := runSecureCompare(t, false, c.a, c.b, 48, opts)
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
		gr, er := runSecureCompare(t, false, p[0], p[1], 64, opts)
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
// unsigned comparison and of Protocol 2's 30-bit sign comparison
// (ROADMAP's wire-format item): five messages whose lengths depend on the
// width, the shape and the garbling scheme alone, never on the values
// compared or the randomness drawn. A w-bit comparison sends w garbler
// labels and w base OTs; the unsigned one garbles w tables, the sign one
// w − 1.
func TestCompareFrameLengths(t *testing.T) {
	for _, tc := range []struct {
		name           string
		sign           bool
		bits, material int
	}{
		// flags + (count, tables × rows × 16) + (count, 1 packed output
		// bit) + (count, w garbler labels × 16)
		{"four-row", false, 64, 1 + 4 + 64*4*16 + 4 + 1 + 4 + 64*16},
		{"sign/30", true, 30, 1 + 4 + 29*4*16 + 4 + 1 + 4 + 30*16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bus := transport.NewBus(nil)
			sizes := map[string]int{}
			var mu sync.Mutex
			gConn := sizeConn{bus.MustRegister("garbler"), &mu, sizes}
			eConn := sizeConn{bus.MustRegister("evaluator"), &mu, sizes}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			garbler, evaluator := entryPoints(tc.sign)

			errc := make(chan error, 1)
			go func() {
				_, err := garbler(ctx, gConn, "evaluator", "w7/", 0xdeadbeef, tc.bits, ProtocolOptions{})
				errc <- err
			}()
			if _, err := evaluator(ctx, eConn, "garbler", "w7/", 42, tc.bits, ProtocolOptions{}); err != nil {
				t.Fatalf("evaluator: %v", err)
			}
			if err := <-errc; err != nil {
				t.Fatalf("garbler: %v", err)
			}
			want := map[string]int{
				"w7/gc/material":   tc.material,
				"w7/gcot/base/A":   33,
				"w7/gcot/base/B":   tc.bits * 33,
				"w7/gcot/base/cts": tc.bits * 2 * ot.KeySize,
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

// TestDifferenceSignExhaustive: for every width w = 2…8, every residue of
// x and every difference |x − y| < 2^(w−1), the sign circuit fed x and y
// mod 2^w says [x > y], in plaintext and garbled, with w − 1 AND gates.
// The totals are offset by 2^w so that y stays non-negative.
func TestDifferenceSignExhaustive(t *testing.T) {
	rng := mrand.New(mrand.NewSource(59))
	for w := 2; w <= 8; w++ {
		circ, err := BuildDifferenceSign(w)
		if err != nil {
			t.Fatal(err)
		}
		if got := circ.NonFreeGates(); got != w-1 {
			t.Errorf("w=%d: %d AND gates, want %d", w, got, w-1)
		}
		half := int64(1) << (w - 1)
		for x := int64(1) << w; x < 2<<w; x++ {
			for d := -half + 1; d < half; d++ {
				y := x - d
				a, b := uintToBits(uint64(x), w), uintToBits(uint64(y), w)
				out, err := circ.EvalPlain(a, b)
				if err != nil {
					t.Fatal(err)
				}
				if out[0] != (x > y) {
					t.Fatalf("w=%d: sign(%d, %d) = %v, want %v", w, x, y, out[0], x > y)
				}
				if x%7 == 0 && garbleEvalLocal(t, circ, a, b, Options{Random: rng})[0] != (x > y) {
					t.Fatalf("w=%d: garbled sign(%d, %d) wrong", w, x, y)
				}
			}
		}
	}
}

// TestSecureSignProtocol runs sampled pairs of wide totals through the two
// roles over a bus at the widths Protocol 2 uses: the difference at, just
// inside and across zero, each side at the bound 2^(w−1) − 1.
func TestSecureSignProtocol(t *testing.T) {
	opts := ProtocolOptions{Random: mrand.New(mrand.NewSource(58))}
	const base = 1<<40 + 12345 // a masked total: nonce mass plus shares
	for _, w := range []int{2, 26, 30, 47} {
		bound := int64(1)<<(w-1) - 1
		for _, d := range []int64{bound, bound - 1, 1, 0, -1, -bound + 1, -bound} {
			x, y := uint64(base+d), uint64(base)
			want := NotGreater
			if d > 0 {
				want = LeftGreater
			}
			if gr, er := runSecureCompare(t, true, x, y, w, opts); gr != want || er != want {
				t.Errorf("w=%d: sign(base%+d, base) = %v / %v, want %v", w, d, gr, er, want)
			}
		}
	}
}

// TestComparisonWidthContract: the unsigned comparison refuses a value of
// 2^bits or more, typed and before any frame, in either role; the sign
// comparison takes its totals mod 2^bits, so wide totals a bounded
// distance apart compare right.
func TestComparisonWidthContract(t *testing.T) {
	ctx := t.Context()
	for _, tc := range []struct {
		name   string
		sign   bool
		x, y   uint64
		bits   int
		refuse bool
		want   CompareResult
	}{
		{"unsigned fits", false, 255, 254, 8, false, LeftGreater},
		{"unsigned 2^bits", false, 256, 0, 8, true, 0},
		{"unsigned 64-bit value at 30", false, 1<<40 + 5, 1<<40 + 3, 30, true, 0},
		{"unsigned all ones at 63", false, 1<<64 - 1, 0, 63, true, 0},
		{"unsigned all ones at 64", false, 1<<64 - 1, 0, 64, false, LeftGreater},
		{"sign reduces", true, 1<<40 + 5, 1<<40 + 3, 30, false, LeftGreater},
		{"sign reduces, mirror", true, 1<<40 + 3, 1<<40 + 5, 30, false, NotGreater},
		{"sign across 2^bits", true, 1<<30 + 1, 1<<30 - 1, 30, false, LeftGreater},
		{"sign tie", true, 1<<63 + 7, 1<<63 + 7, 8, false, NotGreater},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.refuse {
				bus := transport.NewBus(transport.NewMetrics())
				garbler, evaluator := bus.MustRegister("g"), bus.MustRegister("e")
				_, gErr := SecureCompareGarbler(ctx, garbler, "e", "cmp", tc.x, tc.bits, ProtocolOptions{})
				_, eErr := SecureCompareEvaluator(ctx, evaluator, "g", "cmp", tc.x, tc.bits, ProtocolOptions{})
				if !errors.Is(gErr, ErrValueWidth) || !errors.Is(eErr, ErrValueWidth) {
					t.Fatalf("garbler: %v; evaluator: %v; want ErrValueWidth", gErr, eErr)
				}
				if n := bus.Metrics().TotalBytes(); n != 0 {
					t.Errorf("%d bytes sent before the refusal", n)
				}
				return
			}
			opts := ProtocolOptions{Random: mrand.New(mrand.NewSource(int64(tc.bits)))}
			if gr, er := runSecureCompare(t, tc.sign, tc.x, tc.y, tc.bits, opts); gr != tc.want || er != tc.want {
				t.Errorf("compare(%d, %d) at %d bits = %v / %v, want %v", tc.x, tc.y, tc.bits, gr, er, tc.want)
			}
		})
	}
}

// FuzzDifferenceSign draws a width in [2, 62], a total x in [2^62, 2^63)
// and a difference |x − y| < 2^(w−1) from its input, and holds the sign
// circuit, fed x and y mod 2^w, to integer comparison in plaintext and
// garbled.
func FuzzDifferenceSign(f *testing.F) {
	for w := range 62 {
		f.Add(uint8(w), uint64(w)<<30, int64(1)<<w-1)
	}
	f.Add(uint8(28), uint64(0), int64(-1))
	f.Add(uint8(0), uint64(1<<64-1), int64(0))
	rng := mrand.New(mrand.NewSource(62))
	f.Fuzz(func(t *testing.T, width uint8, x uint64, d int64) {
		w := 2 + int(width)%61
		d %= int64(1) << (w - 1)
		x = x>>2 | 1<<62
		y := uint64(int64(x) - d)
		circ, err := differenceSign.circuit(w)
		if err != nil {
			t.Fatal(err)
		}
		a, b := uintToBits(x, w), uintToBits(y, w)
		out, err := circ.EvalPlain(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != (x > y) || garbleEvalLocal(t, circ, a, b, Options{Random: rng})[0] != (x > y) {
			t.Fatalf("w=%d: sign(%d, %d) = %v, want %v", w, x, y, out[0], x > y)
		}
	})
}

// TestComparatorBuiltOncePerWidth: both roles of every comparison of one
// shape and width share one read-only circuit.
func TestComparatorBuiltOncePerWidth(t *testing.T) {
	for _, c := range []*comparison{unsigned, differenceSign} {
		a, err := c.circuit(24)
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.circuit(24)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Error("circuit(24) built twice")
		}
		if c, err := c.circuit(25); err != nil || c == a {
			t.Errorf("circuit(25) = %p, %v; want a circuit of its own", c, err)
		}
		if _, err := c.circuit(0); err == nil {
			t.Error("circuit(0) accepted")
		}
	}
	if _, err := differenceSign.circuit(1); err == nil {
		t.Error("a one-bit sign circuit accepted")
	}
	u, _ := unsigned.circuit(24)
	if d, _ := differenceSign.circuit(24); d == u {
		t.Error("the two shapes share a 24-bit circuit")
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
