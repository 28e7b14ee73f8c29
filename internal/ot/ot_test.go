package ot

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"testing"
	"time"

	"github.com/pem-go/pem/internal/transport"
)

func testConnPair(t testing.TB) (transport.Conn, transport.Conn) {
	t.Helper()
	bus := transport.NewBus(nil)
	s := bus.MustRegister("sender")
	r := bus.MustRegister("receiver")
	t.Cleanup(func() {
		s.Close()
		r.Close()
	})
	return s, r
}

func randomPairs(rng *mrand.Rand, n int) []Pair {
	pairs := make([]Pair, n)
	for i := range pairs {
		m0 := make([]byte, KeySize)
		m1 := make([]byte, KeySize)
		rng.Read(m0)
		rng.Read(m1)
		pairs[i] = Pair{M0: m0, M1: m1}
	}
	return pairs
}

func randomChoices(rng *mrand.Rand, n int) []bool {
	choices := make([]bool, n)
	for i := range choices {
		choices[i] = rng.Intn(2) == 1
	}
	return choices
}

// runOT drives both sides concurrently and verifies the receiver got
// exactly the chosen messages.
func runOT(t *testing.T, send func(ctx context.Context) error, recv func(ctx context.Context) ([][]byte, error), pairs []Pair, choices []bool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	errc := make(chan error, 1)
	go func() { errc <- send(ctx) }()
	got, err := recv(ctx)
	if err != nil {
		t.Fatalf("receiver: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("sender: %v", err)
	}
	if len(got) != len(choices) {
		t.Fatalf("got %d messages, want %d", len(got), len(choices))
	}
	for i, c := range choices {
		want := pairs[i].M0
		other := pairs[i].M1
		if c {
			want, other = other, want
		}
		if !bytes.Equal(got[i], want) {
			t.Errorf("transfer %d: wrong message", i)
		}
		if bytes.Equal(got[i], other) {
			t.Errorf("transfer %d: received the non-chosen message", i)
		}
	}
}

func TestBaseOT(t *testing.T) {
	sConn, rConn := testConnPair(t)
	rng := mrand.New(mrand.NewSource(1))
	pairs := randomPairs(rng, 8)
	choices := randomChoices(rng, 8)

	// The group handles are interchangeable: nil on one side, a
	// constructor's value on the other.
	runOT(t,
		func(ctx context.Context) error {
			return SendBase(ctx, sConn, "receiver", "s1", nil, mrand.New(mrand.NewSource(2)), pairs)
		},
		func(ctx context.Context) ([][]byte, error) {
			return RecvBase(ctx, rConn, "sender", "s1", TestGroup(), mrand.New(mrand.NewSource(3)), choices)
		},
		pairs, choices)
}

// TestBaseOTEveryChoiceVector runs a 4-OT batch under all 2⁴ choice vectors.
func TestBaseOTEveryChoiceVector(t *testing.T) {
	const n = 4
	for v := 0; v < 1<<n; v++ {
		t.Run(fmt.Sprintf("%04b", v), func(t *testing.T) {
			sConn, rConn := testConnPair(t)
			rng := mrand.New(mrand.NewSource(int64(100 + v)))
			pairs := randomPairs(rng, n)
			choices := make([]bool, n)
			for i := range choices {
				choices[i] = v&(1<<i) != 0
			}
			runOT(t,
				func(ctx context.Context) error {
					return SendBase(ctx, sConn, "receiver", "s2", DefaultGroup(), rng, pairs)
				},
				func(ctx context.Context) ([][]byte, error) {
					return RecvBase(ctx, rConn, "sender", "s2", DefaultGroup(), mrand.New(mrand.NewSource(int64(200+v))), choices)
				},
				pairs, choices)
		})
	}
}

func TestBaseOTRejectsBadMessageLength(t *testing.T) {
	sConn, _ := testConnPair(t)
	bad := []Pair{{M0: []byte("short"), M1: make([]byte, KeySize)}}
	if err := SendBase(context.Background(), sConn, "receiver", "s3", nil, nil, bad); err == nil {
		t.Error("want error for short message")
	}
}

func TestMultipleSessionsShareConn(t *testing.T) {
	// Two OT batches with different session prefixes over the same Conn
	// must not interfere.
	sConn, rConn := testConnPair(t)
	rng := mrand.New(mrand.NewSource(13))
	pairsA := randomPairs(rng, 4)
	choicesA := randomChoices(rng, 4)
	pairsB := randomPairs(rng, 4)
	choicesB := randomChoices(rng, 4)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	errc := make(chan error, 2)
	go func() {
		errc <- SendBase(ctx, sConn, "receiver", "A", nil, mrand.New(mrand.NewSource(14)), pairsA)
	}()
	go func() {
		errc <- SendBase(ctx, sConn, "receiver", "B", nil, mrand.New(mrand.NewSource(15)), pairsB)
	}()

	gotB, err := RecvBase(ctx, rConn, "sender", "B", nil, mrand.New(mrand.NewSource(16)), choicesB)
	if err != nil {
		t.Fatal(err)
	}
	gotA, err := RecvBase(ctx, rConn, "sender", "A", nil, mrand.New(mrand.NewSource(17)), choicesA)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range choicesA {
		want := pairsA[i].M0
		if c {
			want = pairsA[i].M1
		}
		if !bytes.Equal(gotA[i], want) {
			t.Errorf("session A transfer %d wrong", i)
		}
	}
	for i, c := range choicesB {
		want := pairsB[i].M0
		if c {
			want = pairsB[i].M1
		}
		if !bytes.Equal(gotB[i], want) {
			t.Errorf("session B transfer %d wrong", i)
		}
	}
}

// --- wire format ---

// patternReader yields the bytes seed, seed+step, seed+2·step, … — a
// "random" source whose output no Go release can change, so the golden
// frames below pin the wire format and nothing else.
type patternReader struct {
	next, step byte
	read       int // bytes handed out so far
}

func (r *patternReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = r.next
		r.next += r.step
	}
	r.read += len(p)
	return len(p), nil
}

// scriptConn is one side's view of a scripted peer: Recv serves canned
// frames by tag (an unscripted tag fails instead of blocking) and Send
// records what the side under test put on the wire.
type scriptConn struct {
	transport.Conn // nil: any other method is a test bug
	frames         map[string][]byte
	sent           map[string][]byte
}

func (c *scriptConn) Send(_ context.Context, _, tag string, payload []byte) error {
	if c.sent == nil {
		c.sent = make(map[string][]byte)
	}
	c.sent[tag] = append([]byte(nil), payload...)
	return nil
}

func (c *scriptConn) Recv(_ context.Context, _, tag string) ([]byte, error) {
	f, ok := c.frames[tag]
	if !ok {
		return nil, fmt.Errorf("scriptConn: no frame scripted for %q", tag)
	}
	return append([]byte(nil), f...), nil
}

// golden is the 4-OT transfer every wire-format test starts from: the
// sender's scalar and the receiver's four come from pattern readers, the
// messages are m_i0 = 16×(0x10+i), m_i1 = 16×(0x20+i), the choices 0,1,1,0.
var golden = struct {
	choices     []bool
	a, b, cts   string // hex of the three frames
	sendPattern patternReader
	recvPattern patternReader
}{
	choices:     []bool{false, true, true, false},
	sendPattern: patternReader{next: 1, step: 7},
	recvPattern: patternReader{next: 3, step: 11},
	a:           "02eb72df8d977165de80499532a268530cd607775d160ebb588832ff5186976561",
	// One 33-byte point per line.
	b: "02c7f320d36fb3de7f2365ead7a9b724b18222cf26b04b37a8abe07a2b88392949" +
		"02ef258e485656a729c7229de4b8db3b74fe33f5fd47bf13fb6df1dae490f1e00f" +
		"0258e2eb7fb1fb253aeb4ea3a2168ed94f305dd80d160f0aca007d3923e549a514" +
		"02d4c6283290714cb8cd30fb3d00a0cb628615f295b0ed24b2be64713fda105eab",
	// One transfer (m_i0 ⊕ k_i0 ‖ m_i1 ⊕ k_i1) per line.
	cts: "08e1a7f3b556e400d04ef9568181bf0ec2728ffaf41809003643ffe500cf8a31" +
		"f69d48bde4d40b8034cd0059ec12f76d92f448a015f11dc97f132192715c5b85" +
		"0c1eb86fa4e247e6463af0e3430ef6518beb5e8f59e4526a0eff74e5ffacf358" +
		"f40d7acd0c8217849037bd0a243abc75eb485bc61540c44f58d14ef70d2aff1f",
}

func goldenPairs() []Pair {
	pairs := make([]Pair, len(golden.choices))
	for i := range pairs {
		pairs[i] = Pair{
			M0: bytes.Repeat([]byte{0x10 + byte(i)}, KeySize),
			M1: bytes.Repeat([]byte{0x20 + byte(i)}, KeySize),
		}
	}
	return pairs
}

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goldenFrames returns the three golden frames keyed by tag under session.
func goldenFrames(t testing.TB, session string) map[string][]byte {
	return map[string][]byte{
		session + tagBaseA:   mustHex(t, golden.a),
		session + tagBaseB:   mustHex(t, golden.b),
		session + tagBaseCts: mustHex(t, golden.cts),
	}
}

// TestABI pins the three frames byte for byte: each role, fed the golden
// frames of its peer and its own pattern reader, must put exactly the
// golden bytes on the wire — and the receiver must open the chosen
// messages. A change to the encoding, the hash input, the scalar draw or
// the batch layout is a deliberate edit of the constants above.
func TestABI(t *testing.T) {
	ctx := context.Background()
	pairs := goldenPairs()

	sender := &scriptConn{frames: goldenFrames(t, "abi/")}
	sp := golden.sendPattern
	if err := SendBase(ctx, sender, "receiver", "abi/", nil, &sp, pairs); err != nil {
		t.Fatalf("sender: %v", err)
	}
	receiver := &scriptConn{frames: goldenFrames(t, "abi/")}
	rp := golden.recvPattern
	got, err := RecvBase(ctx, receiver, "sender", "abi/", nil, &rp, golden.choices)
	if err != nil {
		t.Fatalf("receiver: %v", err)
	}

	for _, f := range []struct {
		name, tag, want string
		conn            *scriptConn
		size            int
	}{
		{"A", tagBaseA, golden.a, sender, pointSize},
		{"B batch", tagBaseB, golden.b, receiver, 4 * pointSize},
		{"ciphertext batch", tagBaseCts, golden.cts, sender, 4 * 2 * KeySize},
	} {
		sent := f.conn.sent["abi/"+f.tag]
		if len(sent) != f.size {
			t.Errorf("%s frame is %d bytes, want %d", f.name, len(sent), f.size)
		}
		if hex.EncodeToString(sent) != f.want {
			t.Errorf("%s frame\n got %x\nwant %s", f.name, sent, f.want)
		}
	}
	for i, c := range golden.choices {
		want := pairs[i].M0
		if c {
			want = pairs[i].M1
		}
		if !bytes.Equal(got[i], want) {
			t.Errorf("transfer %d: got %x, want %x", i, got[i], want)
		}
	}
	if sp.read != scalarSize || rp.read != 4*scalarSize {
		t.Errorf("scalar draws are not fixed %d-byte reads: sender drew %d bytes, receiver %d", scalarSize, sp.read, rp.read)
	}
}

// offCurvePoint returns a compressed encoding whose x-coordinate has no
// point on P-256 (x³ − 3x + b is a non-residue).
func offCurvePoint(t testing.TB) []byte {
	t.Helper()
	enc := make([]byte, pointSize)
	enc[0] = 2
	for x := byte(1); x != 0; x++ {
		enc[pointSize-1] = x
		if _, ok := parsePoint(enc); !ok {
			return enc
		}
	}
	t.Fatal("no off-curve x below 256")
	return nil
}

// TestRejectsMalformedFrames feeds each role one bad frame among otherwise
// golden ones and demands a frameError naming the frame and, for a bad
// point, its index.
func TestRejectsMalformedFrames(t *testing.T) {
	a, b, cts := mustHex(t, golden.a), mustHex(t, golden.b), mustHex(t, golden.cts)
	offCurve := offCurvePoint(t)
	fieldPrime := p256.Params().P.FillBytes(make([]byte, scalarSize))

	// mutate returns a copy of frame with the point at index replaced.
	mutate := func(frame []byte, index int, pt []byte) []byte {
		out := append([]byte(nil), frame...)
		copy(out[index*pointSize:], pt)
		return out
	}
	withPrefix := func(pt []byte, prefix byte) []byte {
		out := append([]byte(nil), pt...)
		out[0] = prefix
		return out
	}

	cases := []struct {
		name      string
		role      string // which side is under test
		tag       string // which frame it is fed
		frame     []byte
		wantFrame string
		wantIndex int // −1: a length error
	}{
		{"A empty", "receiver", tagBaseA, nil, "A", -1},
		{"A short", "receiver", tagBaseA, a[:pointSize-1], "A", -1},
		{"A long", "receiver", tagBaseA, append(append([]byte(nil), a...), 0), "A", -1},
		{"A uncompressed prefix", "receiver", tagBaseA, withPrefix(a, 4), "A", 0},
		{"A zero prefix", "receiver", tagBaseA, withPrefix(a, 0), "A", 0},
		{"A off curve", "receiver", tagBaseA, offCurve, "A", 0},
		{"A x = p", "receiver", tagBaseA, append([]byte{2}, fieldPrime...), "A", 0},
		{"A all zero", "receiver", tagBaseA, make([]byte, pointSize), "A", 0},
		{"A SEC1 identity", "receiver", tagBaseA, []byte{0}, "A", -1},
		{"cts truncated", "receiver", tagBaseCts, cts[:len(cts)-1], "ciphertext", -1},
		{"cts one transfer short", "receiver", tagBaseCts, cts[:len(cts)-2*KeySize], "ciphertext", -1},
		{"cts long", "receiver", tagBaseCts, append(append([]byte(nil), cts...), 0), "ciphertext", -1},

		{"B empty", "sender", tagBaseB, nil, "B", -1},
		{"B truncated", "sender", tagBaseB, b[:len(b)-1], "B", -1},
		{"B one point short", "sender", tagBaseB, b[:len(b)-pointSize], "B", -1},
		{"B one point long", "sender", tagBaseB, append(append([]byte(nil), b...), a...), "B", -1},
		{"B[2] bad prefix", "sender", tagBaseB, mutate(b, 2, withPrefix(b[2*pointSize:3*pointSize], 5)), "B", 2},
		{"B[0] off curve", "sender", tagBaseB, mutate(b, 0, offCurve), "B", 0},
		{"B[3] off curve", "sender", tagBaseB, mutate(b, 3, offCurve), "B", 3},
		{"B[1] all zero", "sender", tagBaseB, mutate(b, 1, make([]byte, pointSize)), "B", 1},
		{"B[1] x = p", "sender", tagBaseB, mutate(b, 1, append([]byte{3}, fieldPrime...)), "B", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frames := goldenFrames(t, "")
			frames[tc.tag] = tc.frame
			conn := &scriptConn{frames: frames}
			var err error
			if tc.role == "sender" {
				sp := golden.sendPattern
				err = SendBase(context.Background(), conn, "receiver", "", nil, &sp, goldenPairs())
			} else {
				rp := golden.recvPattern
				_, err = RecvBase(context.Background(), conn, "sender", "", nil, &rp, golden.choices)
			}
			var fe *frameError
			if !errors.As(err, &fe) {
				t.Fatalf("got %v, want a *frameError", err)
			}
			if fe.frame != tc.wantFrame || fe.index != tc.wantIndex {
				t.Errorf("error names frame %q index %d (%v), want %q index %d", fe.frame, fe.index, err, tc.wantFrame, tc.wantIndex)
			}
			if tc.role == "sender" && conn.sent[tagBaseCts] != nil {
				t.Error("sender shipped ciphertexts despite the bad batch")
			}
		})
	}
}

func TestRejectsZeroScalar(t *testing.T) {
	zeros := &patternReader{}
	if err := SendBase(context.Background(), &scriptConn{}, "receiver", "", nil, zeros, goldenPairs()); err == nil {
		t.Error("sender accepted a zero scalar")
	}
	conn := &scriptConn{frames: goldenFrames(t, "")}
	if _, err := RecvBase(context.Background(), conn, "sender", "", nil, zeros, golden.choices); err == nil {
		t.Error("receiver accepted a zero scalar")
	}
}

func TestRandomReaderErrorSurfaces(t *testing.T) {
	short := io.LimitReader(&patternReader{next: 1, step: 1}, scalarSize-1)
	if err := SendBase(context.Background(), &scriptConn{}, "receiver", "", nil, short, goldenPairs()); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("got %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestSymmetricHalfAllocatesNothing pins the per-transfer hash + XOR at
// zero allocations: the pad is computed over a stack buffer and XOR-ed
// straight into the (pooled) outgoing frame.
func TestSymmetricHalfAllocatesNothing(t *testing.T) {
	p, ok := parsePoint(mustHex(t, golden.a))
	if !ok {
		t.Fatal("golden A does not parse")
	}
	msg := bytes.Repeat([]byte{0xab}, KeySize)
	frame := make([]byte, 2*KeySize)
	allocs := testing.AllocsPerRun(200, func() {
		k := pad(7, p)
		subtle.XORBytes(frame[:KeySize], msg, k[:])
		subtle.XORBytes(frame[KeySize:], frame[KeySize:], k[:KeySize])
	})
	if allocs != 0 {
		t.Errorf("pad + XOR allocate %.0f times per transfer, want 0", allocs)
	}
}

// FuzzRecvBaseFrames hands arbitrary bytes to a role as one of the three
// frames it receives (the others golden). The role must return — never
// panic, never block — and must fail with a frameError whenever the frame
// has the wrong length or holds a point that does not parse; a frame that
// happens to be well-formed yields well-formed output.
func FuzzRecvBaseFrames(f *testing.F) {
	frames := [][]byte{mustHex(f, golden.a), mustHex(f, golden.b), mustHex(f, golden.cts)}
	for which, frame := range frames {
		f.Add(uint8(which), frame)
		for _, at := range []int{0, 1, len(frame) / 2, len(frame) - 1} {
			flipped := append([]byte(nil), frame...)
			flipped[at] ^= 0x40
			f.Add(uint8(which), flipped)
		}
		f.Add(uint8(which), frame[:len(frame)-1])
		f.Add(uint8(which), []byte{})
	}
	tags := []string{tagBaseA, tagBaseB, tagBaseCts}
	n := len(golden.choices)
	wantLen := []int{pointSize, n * pointSize, n * 2 * KeySize}

	f.Fuzz(func(t *testing.T, which uint8, frame []byte) {
		which %= 3
		scripted := goldenFrames(t, "")
		scripted[tags[which]] = frame
		conn := &scriptConn{frames: scripted}

		wellFormed := len(frame) == wantLen[which]
		if wellFormed && which != 2 {
			for i := 0; i < len(frame); i += pointSize {
				if _, ok := parsePoint(frame[i : i+pointSize]); !ok {
					wellFormed = false
				}
			}
		}

		var err error
		if which == 1 {
			sp := golden.sendPattern
			err = SendBase(context.Background(), conn, "receiver", "", nil, &sp, goldenPairs())
			if err == nil && len(conn.sent[tagBaseCts]) != wantLen[2] {
				t.Errorf("sender shipped %d ciphertext bytes, want %d", len(conn.sent[tagBaseCts]), wantLen[2])
			}
		} else {
			rp := golden.recvPattern
			var got [][]byte
			got, err = RecvBase(context.Background(), conn, "sender", "", nil, &rp, golden.choices)
			if err == nil {
				if len(got) != n {
					t.Fatalf("receiver returned %d messages, want %d", len(got), n)
				}
				for i, m := range got {
					if len(m) != KeySize {
						t.Errorf("message %d has %d bytes, want %d", i, len(m), KeySize)
					}
				}
			}
		}
		var fe *frameError
		switch {
		case wellFormed && err != nil:
			t.Errorf("well-formed frame rejected: %v", err)
		case !wellFormed && !errors.As(err, &fe):
			t.Errorf("malformed frame: got %v, want a *frameError", err)
		}
	})
}

func BenchmarkBaseOT64(b *testing.B) {
	rng := mrand.New(mrand.NewSource(1))
	pairs := randomPairs(rng, 64)
	choices := randomChoices(rng, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus := transport.NewBus(nil)
		s := bus.MustRegister("sender")
		r := bus.MustRegister("receiver")
		ctx := context.Background()
		errc := make(chan error, 1)
		go func() { errc <- SendBase(ctx, s, "receiver", "b", nil, nil, pairs) }()
		if _, err := RecvBase(ctx, r, "sender", "b", nil, nil, choices); err != nil {
			b.Fatal(err)
		}
		if err := <-errc; err != nil {
			b.Fatal(err)
		}
	}
}
