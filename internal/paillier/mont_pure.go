//go:build math_big_pure_go

package paillier

import (
	"math/big"
	"math/bits"
)

// addMulVVW sets z += x·y over len(z) words and returns the carry word.
func addMulVVW(z, x []big.Word, y big.Word) (c big.Word) {
	for i := range z {
		hi, lo := bits.Mul(uint(x[i]), uint(y))
		var cc uint
		lo, cc = bits.Add(lo, uint(z[i]), 0)
		hi += cc
		lo, cc = bits.Add(lo, uint(c), 0)
		z[i], c = big.Word(lo), big.Word(hi+cc)
	}
	return c
}
