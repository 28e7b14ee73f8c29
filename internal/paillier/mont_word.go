//go:build !math_big_pure_go

package paillier

import (
	"math/big"
	_ "unsafe" // for go:linkname
)

// addMulVVW sets z += x·y over len(z) words and returns the carry word. It
// is math/big's own multiply-accumulate kernel, the loop under every
// multiplication it does; math/big keeps it reachable by name on purpose
// ("Do not remove or change the type signature", go.dev/issue/67401).
// Under math_big_pure_go it has no such directive, and mont_pure.go stands
// in.
//
//go:linkname addMulVVW math/big.addMulVVW
//go:noescape
func addMulVVW(z, x []big.Word, y big.Word) (c big.Word)
