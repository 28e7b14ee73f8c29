package transport

import (
	"math"
	"strconv"
	"testing"
)

// TestScopedWindowTagBoundaries pins the parser's edges: extreme window
// numbers, canonicalization of non-canonical digit strings, and the
// scope/window shapes that must never parse.
func TestScopedWindowTagBoundaries(t *testing.T) {
	// Largest representable window survives a round trip in both forms.
	huge := math.MaxInt
	for _, scope := range []string{"", "c99"} {
		full := ScopedWindowTag(scope, huge, "pd/ratios")
		s, w, rest, ok := ParseScopedWindowTag(full)
		if !ok || s != scope || w != huge || rest != "pd/ratios" {
			t.Errorf("max-window round trip failed: %q -> (%q, %d, %q, %v)", full, s, w, rest, ok)
		}
	}

	// Non-canonical digits parse (Atoi semantics) but re-encode to the
	// canonical form; the parse of the re-encoding must be a fixed point.
	for _, tag := range []string{"w007/x", "w+3/x", "c0/w007/x"} {
		s, w, rest, ok := ParseScopedWindowTag(tag)
		if !ok {
			continue // rejecting non-canonical digits is also acceptable
		}
		re := ScopedWindowTag(s, w, rest)
		s2, w2, rest2, ok2 := ParseScopedWindowTag(re)
		if !ok2 || s2 != s || w2 != w || rest2 != rest {
			t.Errorf("canonicalization not a fixed point: %q -> %q -> (%q, %d, %q, %v)", tag, re, s2, w2, rest2, ok2)
		}
	}

	// Shapes that must never parse as window-scoped.
	for _, bad := range []string{
		"",                            // empty
		"w",                           // no window digits, no rest
		"w1",                          // window with no rest separator
		"w-1/x",                       // negative window
		"w1x/y",                       // trailing junk in the window number
		"/w1/x",                       // empty scope
		"a b/w1/x",                    // invalid scope byte
		"c0//x",                       // scope present but no window namespace
		"c0/x",                        // scope with unscoped rest
		"c0/c1/w1/x",                  // two scope segments
		"w999999999999999999999999/x", // overflows Atoi
	} {
		if s, w, rest, ok := ParseScopedWindowTag(bad); ok {
			t.Errorf("ParseScopedWindowTag(%q) accepted as (%q, %d, %q)", bad, s, w, rest)
		}
	}

	// The window-number digits boundary: wN parses for every N the encoder
	// can emit, including 0.
	for _, w := range []int{0, 1, 9, 10, 12345} {
		tag := "w" + strconv.Itoa(w) + "/t"
		if s, got, rest, ok := ParseScopedWindowTag(tag); !ok || s != "" || got != w || rest != "t" {
			t.Errorf("ParseScopedWindowTag(%q) = (%q, %d, %q, %v)", tag, s, got, rest, ok)
		}
	}
}

// FuzzParseScopedWindowTag checks the tag parser never panics, that every
// accepted tag satisfies the parser's own invariants, and that parsing is a
// fixed point under re-encoding — the property the metrics attribution and
// the netem lane keys both rely on.
func FuzzParseScopedWindowTag(f *testing.F) {
	f.Add("w0/role")
	f.Add("w41/pme/rb")
	f.Add("c07/w3/pd/ratios")
	f.Add("e02-c11/w719/pd/energy")
	f.Add("keys/paillier")
	f.Add("w2/w1/role")
	f.Add("w007/x")
	f.Add("")
	f.Add("/w1/x")
	f.Add("w-1/x")
	f.Fuzz(func(t *testing.T, tag string) {
		scope, w, rest, ok := ParseScopedWindowTag(tag)
		if !ok {
			return
		}
		if w < 0 {
			t.Fatalf("accepted negative window %d from %q", w, tag)
		}
		if scope != "" && !ValidScope(scope) {
			t.Fatalf("accepted invalid scope %q from %q", scope, tag)
		}
		re := ScopedWindowTag(scope, w, rest)
		s2, w2, rest2, ok2 := ParseScopedWindowTag(re)
		if !ok2 || s2 != scope || w2 != w || rest2 != rest {
			t.Fatalf("re-encode of %q not a parse fixed point: %q -> (%q, %d, %q, %v)",
				tag, re, s2, w2, rest2, ok2)
		}
		// The two levels must agree: the unscoped form sees the same
		// (window, rest) once the scope prefix is stripped.
		inner := re
		if scope != "" {
			inner = re[len(scope)+1:]
		}
		if s3, w3, rest3, ok3 := ParseScopedWindowTag(inner); !ok3 || s3 != "" || w3 != w || rest3 != rest {
			t.Fatalf("unscoped parse disagrees on %q: (%q, %d, %q, %v)", inner, s3, w3, rest3, ok3)
		}
	})
}
