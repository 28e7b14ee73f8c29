//lint:file-ignore SA1019 crypto/elliptic's Curve methods are the standard library's only P-256 arithmetic that hands back whole points; the sender needs a·B − a·A, which crypto/ecdh (x-coordinate only) cannot express. Every point that enters them here was produced by them or validated by parsePoint.

package ot

import (
	"crypto/elliptic"
	"errors"
	"fmt"
	"io"
	"math/big"
)

const (
	// scalarSize is the byte length of one secret scalar, drawn as one
	// fixed-width read so a seeded reader is consumed value-independently.
	scalarSize = 32
	// pointSize is the byte length of a SEC1 compressed P-256 point, the
	// only form a point takes on the wire.
	pointSize = 33
)

var p256 = elliptic.P256()

// point is an affine P-256 point. The identity has no affine form;
// crypto/elliptic reports it as (0, 0).
type point struct{ x, y *big.Int }

func (p point) isIdentity() bool { return p.x.Sign() == 0 && p.y.Sign() == 0 }

// mult returns k·p for a scalarSize-byte big-endian scalar (reduced modulo
// the group order by the curve).
func (p point) mult(k []byte) point {
	x, y := p256.ScalarMult(p.x, p.y, k)
	return point{x, y}
}

func (p point) add(q point) point {
	x, y := p256.Add(p.x, p.y, q.x, q.y)
	return point{x, y}
}

func (p point) neg() point {
	return point{p.x, new(big.Int).Sub(p256.Params().P, p.y)}
}

// put writes p's compressed encoding into dst[:pointSize]; p must not be
// the identity.
func (p point) put(dst []byte) {
	dst[0] = 2 | byte(p.y.Bit(0))
	p.x.FillBytes(dst[1:pointSize])
}

// parsePoint decodes and validates one compressed point: exact length, a
// 0x02/0x03 prefix, x below the field prime and on the curve. The identity
// has no such encoding, so it is rejected with everything else.
func parsePoint(src []byte) (point, bool) {
	x, y := elliptic.UnmarshalCompressed(p256, src)
	return point{x, y}, x != nil
}

// randomMultiple draws a scalar k into buf (scalarSize bytes, one read) and
// returns k·G. A scalar that is zero modulo the group order — probability
// 2⁻²⁵⁶ from a uniform reader — is an error rather than a redraw, so the
// number of bytes consumed never depends on their values.
func randomMultiple(random io.Reader, buf []byte) (point, error) {
	if _, err := io.ReadFull(random, buf); err != nil {
		return point{}, fmt.Errorf("ot: draw scalar: %w", err)
	}
	x, y := p256.ScalarBaseMult(buf)
	p := point{x, y}
	if p.isIdentity() {
		return point{}, errors.New("ot: drew a zero scalar")
	}
	return p, nil
}
