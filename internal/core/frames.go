package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"github.com/pem-go/pem/internal/paillier"
	"github.com/pem-go/pem/internal/transport"
)

// This file is a trading window's one wire path. Every frame a party
// receives inside a window arrives through recvFrame (or, for Hs's masked
// products, recvAnyCipher) and is read by one of the decoders below, each
// of which checks the frame's exact length before it parses it. Every
// failure — the receive's, the length's or the decoder's — is a
// *WindowError whose Peer and Tag name the sender and the tag. A frame's
// width depends on its phase, the key and the public rosters alone, never
// on the values carried. Only ExchangeKeys, a session-level exchange,
// receives elsewhere.

// checkLen is the receive rule: a frame of any length but want is refused
// before it is parsed.
func checkLen(raw []byte, want int, from, tag string) error {
	if len(raw) != want {
		return &WindowError{Peer: from, Tag: tag, got: len(raw), want: want}
	}
	return nil
}

// recvFrame takes from's next frame under tag; the caller decodes it and
// recycles it with transport.PutFrame.
func (r *windowRun) recvFrame(ctx context.Context, from, tag string) ([]byte, error) {
	raw, err := r.conn.Recv(ctx, from, tag)
	if err != nil {
		return nil, &WindowError{Peer: from, Tag: tag, Err: err}
	}
	return raw, nil
}

// decodeKind reads a one-byte frame carrying a kind in [1, top]: a party's
// market.Role or the window's market.Kind.
func decodeKind(raw []byte, top byte, from, tag string) (byte, error) {
	if err := checkLen(raw, 1, from, tag); err != nil {
		return 0, err
	}
	if raw[0] < 1 || raw[0] > top {
		return 0, &WindowError{Peer: from, Tag: tag, Err: fmt.Errorf("kind %d outside [1, %d]", raw[0], top)}
	}
	return raw[0], nil
}

func (r *windowRun) recvKind(ctx context.Context, from, tag string, top byte) (byte, error) {
	raw, err := r.recvFrame(ctx, from, tag)
	if err != nil {
		return 0, err
	}
	kind, err := decodeKind(raw, top, from, tag)
	transport.PutFrame(raw)
	return kind, err
}

// maskedShare is one or two 64-bit words on the wire: a hybrid partial sum
// (see shareShape), or a plain fixed-point word — Protocol 3's price,
// Protocol 4's energy and reply — in its first word.
type maskedShare [2]uint64

// encodeShare writes the first `words` words as a fixed-width frame: the
// frame size depends only on the phase, never on the values, preserving
// exact netem byte accounting. The frame is pooled — the caller owns it and
// recycles it with transport.PutFrame once sent.
func encodeShare(s maskedShare, words int) []byte {
	out := transport.GetFrame(8 * words)
	for i := 0; i < words; i++ {
		binary.BigEndian.PutUint64(out[8*i:], s[i])
	}
	return out
}

func decodeShare(raw []byte, words int, from, tag string) (maskedShare, error) {
	var s maskedShare
	if err := checkLen(raw, 8*words, from, tag); err != nil {
		return s, err
	}
	for i := 0; i < words; i++ {
		s[i] = binary.BigEndian.Uint64(raw[8*i:])
	}
	return s, nil
}

func (r *windowRun) sendShare(ctx context.Context, to, tag string, words int, s maskedShare) error {
	out := encodeShare(s, words)
	err := r.conn.Send(ctx, to, tag, out)
	transport.PutFrame(out)
	return err
}

func (r *windowRun) recvShare(ctx context.Context, from, tag string, words int) (maskedShare, error) {
	raw, err := r.recvFrame(ctx, from, tag)
	if err != nil {
		return maskedShare{}, err
	}
	s, err := decodeShare(raw, words, from, tag)
	transport.PutFrame(raw)
	return s, err
}

// sendCipher sends ct to each of to but this party, fixed-width from one
// pooled frame, recycled once every send has settled (broadcast).
func (r *windowRun) sendCipher(ctx context.Context, pk *paillier.PublicKey, ct *paillier.Ciphertext, tag string, to ...string) error {
	out, err := ct.AppendFixed(transport.GetFrame(pk.FixedLen())[:0], pk)
	if err != nil {
		return err
	}
	err = r.broadcast(ctx, to, tag, out)
	transport.PutFrame(out)
	return err
}

// decodeCipher reads a ciphertext under pk into ct (whose storage it
// reuses): exactly pk.FixedLen() bytes, and an element of [1, n²).
func decodeCipher(raw []byte, pk *paillier.PublicKey, ct *paillier.Ciphertext, from, tag string) error {
	if err := checkLen(raw, pk.FixedLen(), from, tag); err != nil {
		return err
	}
	err := ct.UnmarshalBinary(raw)
	if err == nil && (ct.C.Sign() <= 0 || ct.C.Cmp(pk.N2) >= 0) {
		err = paillier.ErrInvalidCiphertext
	}
	if err != nil {
		return &WindowError{Peer: from, Tag: tag, Err: err}
	}
	return nil
}

func (r *windowRun) recvCipher(ctx context.Context, pk *paillier.PublicKey, ct *paillier.Ciphertext, from, tag string) error {
	raw, err := r.recvFrame(ctx, from, tag)
	if err != nil {
		return err
	}
	err = decodeCipher(raw, pk, ct, from, tag)
	transport.PutFrame(raw)
	return err
}

// recvAnyCipher is recvCipher from whichever of froms sends first; it
// returns the sender. A failed receive gets no frame, so it leaves Peer
// empty; the transport's error names the peers it waited on.
func (r *windowRun) recvAnyCipher(ctx context.Context, pk *paillier.PublicKey, ct *paillier.Ciphertext, froms []string, tag string) (string, error) {
	from, raw, err := r.conn.RecvAny(ctx, tag, froms)
	if err != nil {
		return "", &WindowError{Tag: tag, Err: err}
	}
	err = decodeCipher(raw, pk, ct, from, tag)
	transport.PutFrame(raw)
	return from, err
}

// encodeRatios writes Hs's ratio vector as one big-endian float64 word per
// demand-side member, in the roster's public sorted order, into a pooled
// frame the caller recycles with transport.PutFrame.
func encodeRatios(ratios []float64) []byte {
	out := transport.GetFrame(8 * len(ratios))
	for i, v := range ratios {
		binary.BigEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// decodeRatios reads the ratio vector of an n-member demand side: exactly
// 8·n bytes, and every word must pass checkRatio before it can reach
// routeAndPay.
func decodeRatios(raw []byte, n int, from, tag string) ([]float64, error) {
	if err := checkLen(raw, 8*n, from, tag); err != nil {
		return nil, err
	}
	ratios := make([]float64, n)
	for i := range ratios {
		ratios[i] = math.Float64frombits(binary.BigEndian.Uint64(raw[8*i:]))
		if err := checkRatio(ratios[i]); err != nil {
			return nil, &WindowError{Peer: from, Tag: tag, Err: fmt.Errorf("word %d: %w", i, err)}
		}
	}
	return ratios, nil
}

func (r *windowRun) recvRatios(ctx context.Context, hs, tag string, n int) ([]float64, error) {
	raw, err := r.recvFrame(ctx, hs, tag)
	if err != nil {
		return nil, err
	}
	ratios, err := decodeRatios(raw, n, hs, tag)
	transport.PutFrame(raw)
	return ratios, err
}
