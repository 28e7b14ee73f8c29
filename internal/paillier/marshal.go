package paillier

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"sync/atomic"
)

// Wire format: every big.Int is encoded as a uint32 big-endian length
// followed by the magnitude bytes (values are always non-negative on the
// wire). Keys and ciphertexts use this shared primitive.

func appendBig(dst []byte, x *big.Int) []byte {
	b := x.Bytes()
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(b)))
	dst = append(dst, lenBuf[:]...)
	return append(dst, b...)
}

func readBig(src []byte) (*big.Int, []byte, error) {
	if len(src) < 4 {
		return nil, nil, errors.New("paillier: truncated length prefix")
	}
	n := binary.BigEndian.Uint32(src)
	src = src[4:]
	if uint32(len(src)) < n {
		return nil, nil, errors.New("paillier: truncated big.Int body")
	}
	return new(big.Int).SetBytes(src[:n]), src[n:], nil
}

// MarshalBinary encodes the public key (just n; n² is recomputed).
func (pk *PublicKey) MarshalBinary() ([]byte, error) {
	if pk.N == nil {
		return nil, errors.New("paillier: nil public key")
	}
	return appendBig(nil, pk.N), nil
}

// UnmarshalBinary decodes a public key produced by MarshalBinary.
func (pk *PublicKey) UnmarshalBinary(data []byte) error {
	n, rest, err := readBig(data)
	if err != nil {
		return fmt.Errorf("decode public key: %w", err)
	}
	if len(rest) != 0 {
		return errors.New("paillier: trailing bytes after public key")
	}
	if n.BitLen() < 8 {
		return errors.New("paillier: implausibly small modulus")
	}
	pk.N = n
	pk.N2 = new(big.Int).Mul(n, n)
	pk.table = atomic.Value{} // a table of the previous modulus is stale
	return nil
}

// MarshalBinary encodes the ciphertext value.
func (c *Ciphertext) MarshalBinary() ([]byte, error) {
	if c.C == nil {
		return nil, errors.New("paillier: nil ciphertext")
	}
	return appendBig(nil, c.C), nil
}

// MarshalFixed encodes the ciphertext like MarshalBinary but left-pads the
// magnitude to pk's canonical ciphertext width — the byte length of n² —
// so every ciphertext under one key has the same wire size. Protocol code
// uses it for on-the-wire ciphertexts: constant-size frames close the
// (harmless but noisy) magnitude-length channel and make byte accounting —
// and the network emulation's serialization pricing — independent of which
// pre-computed blinding factor an encryption happened to draw.
// UnmarshalBinary decodes both forms identically.
func (c *Ciphertext) MarshalFixed(pk *PublicKey) ([]byte, error) {
	return c.AppendFixed(nil, pk)
}

// AppendFixed appends the MarshalFixed encoding to dst and returns the
// extended slice — the allocation-lean form of MarshalFixed: the wire
// encoders pass a pooled frame buffer (see transport.GetFrame) sized with
// FixedLen so steady-state serialization allocates nothing. dst may be nil.
func (c *Ciphertext) AppendFixed(dst []byte, pk *PublicKey) ([]byte, error) {
	if c.C == nil {
		return nil, errors.New("paillier: nil ciphertext")
	}
	if pk == nil || pk.N2 == nil {
		return nil, errors.New("paillier: nil public key")
	}
	width := (pk.N2.BitLen() + 7) / 8
	if c.C.Sign() < 0 || (c.C.BitLen()+7)/8 > width {
		return nil, errors.New("paillier: ciphertext wider than the key's modulus")
	}
	off := len(dst)
	need := 4 + width
	if cap(dst)-off >= need {
		dst = dst[:off+need]
	} else {
		grown := make([]byte, off+need)
		copy(grown, dst)
		dst = grown
	}
	binary.BigEndian.PutUint32(dst[off:], uint32(width))
	c.C.FillBytes(dst[off+4 : off+need])
	return dst, nil
}

// FixedLen returns the exact encoded size of one AppendFixed/MarshalFixed
// ciphertext under this key: the 4-byte width prefix plus the byte length
// of n². Wire encoders use it to size pooled frame buffers.
func (pk *PublicKey) FixedLen() int {
	return 4 + (pk.N2.BitLen()+7)/8
}

// UnmarshalBinary decodes a ciphertext produced by MarshalBinary,
// MarshalFixed or AppendFixed. A non-nil c.C is reused in place (its
// storage absorbs the decoded value), so a fold loop that decodes into the
// same Ciphertext every hop stops allocating once the integer has grown to
// ciphertext width.
func (c *Ciphertext) UnmarshalBinary(data []byte) error {
	if len(data) < 4 {
		return errors.New("decode ciphertext: paillier: truncated length prefix")
	}
	n := binary.BigEndian.Uint32(data)
	body := data[4:]
	if uint32(len(body)) < n {
		return errors.New("decode ciphertext: paillier: truncated big.Int body")
	}
	if uint32(len(body)) != n {
		return errors.New("paillier: trailing bytes after ciphertext")
	}
	if c.C == nil {
		c.C = new(big.Int)
	}
	c.C.SetBytes(body)
	return nil
}

// MarshalBinary encodes the private key (p and q; everything else is
// recomputed). Intended for checkpointing agents to disk, never the wire.
func (sk *PrivateKey) MarshalBinary() ([]byte, error) {
	if sk.p == nil || sk.q == nil {
		return nil, errors.New("paillier: nil private key")
	}
	return appendBig(appendBig(nil, sk.p), sk.q), nil
}

// UnmarshalBinary decodes a private key produced by MarshalBinary.
func (sk *PrivateKey) UnmarshalBinary(data []byte) error {
	p, rest, err := readBig(data)
	if err != nil {
		return fmt.Errorf("decode private key p: %w", err)
	}
	q, rest, err := readBig(rest)
	if err != nil {
		return fmt.Errorf("decode private key q: %w", err)
	}
	if len(rest) != 0 {
		return errors.New("paillier: trailing bytes after private key")
	}
	key, err := newPrivateKey(p, q)
	if err != nil {
		return err
	}
	*sk = *key
	return nil
}
