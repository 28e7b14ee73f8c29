// Package ot implements 1-out-of-2 oblivious transfer, the primitive that
// lets the garbled-circuit evaluator in Private Market Evaluation
// (Protocol 2) obtain wire labels for its secret input bits without the
// garbler learning which labels were fetched.
//
// The construction is the semi-honest base OT of Chou–Orlandi ("the simplest
// OT") over NIST P-256, standard library only. For a batch of n transfers:
//
//	sender:   a ← Z_q,  A = a·G                          → A      (33 bytes)
//	receiver: b_i ← Z_q,  B_i = b_i·G (+ A if c_i)       → B      (33·n bytes)
//	sender:   k_i0 = H(i, x(a·B_i)),  k_i1 = H(i, x(a·B_i − a·A))
//	          m_i0 ⊕ k_i0 ‖ m_i1 ⊕ k_i1                  → cts    (32·n bytes)
//	receiver: k_ic = H(i, x(b_i·A)) opens the chosen half
//
// Every point travels as a fixed-width SEC1 compressed encoding and every
// scalar is one fixed 32-byte read, so the bytes on the wire and the bytes
// consumed from a seeded reader depend on n alone. Every received point is
// validated (length, prefix, on the curve, not the identity) before use.
//
// It runs over a transport.Conn so it composes with the rest of the PEM
// stack.
package ot

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/pem-go/pem/internal/transport"
)

// KeySize is the byte length of the symmetric keys/messages carried by a
// single OT (matches the garbled-circuit wire-label length).
const KeySize = 16

// Group is an opaque handle to the group the transfers run in. There is
// exactly one, NIST P-256: the type, its two constructors and the grp
// parameters of SendBase/RecvBase remain only because callers name them,
// and nil means the same group as any other value.
type Group struct{}

// DefaultGroup returns the handle of the P-256 group.
func DefaultGroup() *Group { return &Group{} }

// TestGroup returns DefaultGroup: P-256 is fast enough that tests need no
// weaker stand-in.
func TestGroup() *Group { return DefaultGroup() }

// Pair is one OT instance from the sender's perspective: two messages of
// exactly KeySize bytes.
type Pair struct {
	// M0 and M1 are the messages the receiver's choice bit 0 and 1 select.
	M0, M1 []byte
}

// validatePairs checks message lengths.
func validatePairs(pairs []Pair) error {
	for i, p := range pairs {
		if len(p.M0) != KeySize || len(p.M1) != KeySize {
			return fmt.Errorf("ot: pair %d: messages must be %d bytes", i, KeySize)
		}
	}
	return nil
}

// frameError reports a received frame the protocol cannot use: the whole
// frame when its length is wrong (index < 0), else the one point in it that
// failed validation.
type frameError struct {
	frame     string // "A", "B" or "ciphertext"
	index     int
	got, want int // frame lengths, when index < 0
}

// Error names the frame and, for a bad point, its index.
func (e *frameError) Error() string {
	if e.index < 0 {
		return fmt.Sprintf("ot: %s frame has %d bytes, want %d", e.frame, e.got, e.want)
	}
	return fmt.Sprintf("ot: %s frame: point %d is not a valid P-256 point", e.frame, e.index)
}

// recvFrame receives one frame and checks its exact length before anything
// is parsed. The caller owns the returned frame and hands it back with
// transport.PutFrame.
func recvFrame(ctx context.Context, conn transport.Conn, peer, tag, frame string, want int) ([]byte, error) {
	raw, err := conn.Recv(ctx, peer, tag)
	if err != nil {
		return nil, fmt.Errorf("ot: recv %s frame: %w", frame, err)
	}
	if len(raw) != want {
		err := &frameError{frame: frame, index: -1, got: len(raw), want: want}
		transport.PutFrame(raw)
		return nil, err
	}
	return raw, nil
}

// pad derives the one-time pad H(index, x(p)) of one transfer; its first
// KeySize bytes are the key. The hash input is laid out on the stack, so
// the symmetric half of a transfer (pad, then subtle.XORBytes into the
// frame) allocates nothing.
func pad(index uint64, p point) [sha256.Size]byte {
	var in [8 + scalarSize]byte
	binary.BigEndian.PutUint64(in[:8], index)
	p.x.FillBytes(in[8:])
	return sha256.Sum256(in[:])
}

// Protocol tags.
const (
	tagBaseA   = "ot/base/A"
	tagBaseB   = "ot/base/B"
	tagBaseCts = "ot/base/cts"
)

// SendBase runs the sender side of len(pairs) base OTs with the given peer.
// session namespaces the tags so multiple OT batches can share a Conn. The
// group handle is ignored (see Group); a nil random means crypto/rand.
func SendBase(ctx context.Context, conn transport.Conn, peer, session string, _ *Group, random io.Reader, pairs []Pair) error {
	if err := validatePairs(pairs); err != nil {
		return err
	}
	if random == nil {
		random = rand.Reader
	}
	// One scalar a and A = a·G serve the whole batch (standard batching for
	// Chou–Orlandi; per-index hashing separates the derived keys).
	var a [scalarSize]byte
	bigA, err := randomMultiple(random, a[:])
	if err != nil {
		return err
	}
	var frameA [pointSize]byte
	bigA.put(frameA[:])
	if err := conn.Send(ctx, peer, session+tagBaseA, frameA[:]); err != nil {
		return fmt.Errorf("ot: send A: %w", err)
	}

	// −a·A, once per batch: a·B_i − a·A peels the receiver's +A for choice
	// bit 1 with one point addition instead of a second multiplication.
	negAA := bigA.mult(a[:]).neg()

	batch, err := recvFrame(ctx, conn, peer, session+tagBaseB, "B", len(pairs)*pointSize)
	if err != nil {
		return err
	}
	defer transport.PutFrame(batch)

	out := transport.GetFrame(len(pairs) * 2 * KeySize)
	defer transport.PutFrame(out)
	for i, pair := range pairs {
		bigB, ok := parsePoint(batch[i*pointSize : (i+1)*pointSize])
		if !ok {
			return &frameError{frame: "B", index: i}
		}
		aB := bigB.mult(a[:])
		ct := out[i*2*KeySize : (i+1)*2*KeySize]
		k0, k1 := pad(uint64(i), aB), pad(uint64(i), aB.add(negAA))
		subtle.XORBytes(ct[:KeySize], pair.M0, k0[:])
		subtle.XORBytes(ct[KeySize:], pair.M1, k1[:])
	}
	if err := conn.Send(ctx, peer, session+tagBaseCts, out); err != nil {
		return fmt.Errorf("ot: send ciphertexts: %w", err)
	}
	return nil
}

// RecvBase runs the receiver side of len(choices) base OTs and returns the
// chosen messages. The group handle is ignored (see Group); a nil random
// means crypto/rand.
func RecvBase(ctx context.Context, conn transport.Conn, peer, session string, _ *Group, random io.Reader, choices []bool) ([][]byte, error) {
	if random == nil {
		random = rand.Reader
	}
	raw, err := recvFrame(ctx, conn, peer, session+tagBaseA, "A", pointSize)
	if err != nil {
		return nil, err
	}
	bigA, ok := parsePoint(raw)
	transport.PutFrame(raw)
	if !ok {
		return nil, &frameError{frame: "A", index: 0}
	}

	scalars := make([]byte, len(choices)*scalarSize)
	batch := transport.GetFrame(len(choices) * pointSize)
	defer transport.PutFrame(batch)
	for i, c := range choices {
		bigB, err := randomMultiple(random, scalars[i*scalarSize:(i+1)*scalarSize])
		if err != nil {
			return nil, err
		}
		if c {
			bigB = bigB.add(bigA)
			if bigB.isIdentity() { // b_i·G = −A: as likely as guessing a
				return nil, fmt.Errorf("ot: transfer %d: degenerate scalar", i)
			}
		}
		bigB.put(batch[i*pointSize : (i+1)*pointSize])
	}
	if err := conn.Send(ctx, peer, session+tagBaseB, batch); err != nil {
		return nil, fmt.Errorf("ot: send B batch: %w", err)
	}

	// k_ic = H(i, x(b_i·A)), derived while the sender is busy with its own
	// multiplications rather than after its ciphertexts arrive. The keys
	// land in the buffer the chosen messages are returned in.
	keys := make([]byte, len(choices)*KeySize)
	out := make([][]byte, len(choices))
	for i := range choices {
		k := pad(uint64(i), bigA.mult(scalars[i*scalarSize:(i+1)*scalarSize]))
		out[i] = keys[i*KeySize : (i+1)*KeySize : (i+1)*KeySize]
		copy(out[i], k[:])
	}

	cts, err := recvFrame(ctx, conn, peer, session+tagBaseCts, "ciphertext", len(choices)*2*KeySize)
	if err != nil {
		return nil, err
	}
	for i, c := range choices {
		ct := cts[i*2*KeySize : (i+1)*2*KeySize]
		if c {
			ct = ct[KeySize:]
		}
		subtle.XORBytes(out[i], out[i], ct)
	}
	transport.PutFrame(cts)
	return out, nil
}
