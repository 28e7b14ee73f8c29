package dataset

import (
	"fmt"
	"hash/fnv"
	"math"
	mrand "math/rand"
	"testing"
)

// daySourceSeeds are the seeds the replica is held to: rngSource.Seed's
// edge cases (0 and its 89482311 substitute, ±(2³¹−1) which reduce to 0,
// 2³¹+4 which wraps past the modulus, the int64 extremes) and 2 000 seeded
// values of every magnitude and sign.
func daySourceSeeds() []int64 {
	seeds := []int64{0, 89482311, srcMod, -srcMod, 1<<31 + 4, math.MinInt64, math.MaxInt64}
	r := mrand.New(mrand.NewSource(20200425))
	for range 2000 {
		seeds = append(seeds, int64(r.Uint64())>>r.Intn(64))
	}
	return seeds
}

// daySourceDiff seeds got with seed, then draws 3·607 mixed values from it
// and from mrand.NewSource(seed), and describes the first that differ.
func daySourceDiff(got *mrand.Rand, seed int64) string {
	want := mrand.New(mrand.NewSource(seed))
	got.Seed(seed)
	for i := range 3 * srcLen {
		var g, w any
		switch i % 5 {
		case 0:
			g, w = got.Float64(), want.Float64()
		case 1:
			g, w = got.NormFloat64(), want.NormFloat64()
		case 2:
			g, w = got.Int63(), want.Int63()
		case 3:
			g, w = got.Uint64(), want.Uint64()
		case 4:
			g, w = [7]int(got.Perm(7)), [7]int(want.Perm(7))
		}
		if g != w {
			return fmt.Sprintf("seed %d, draw %d: %v, math/rand %v", seed, i, g, w)
		}
	}
	return ""
}

// TestDaySourceMatchesMathRand holds one pooled replica, reseeded for each
// seed as synthesis reseeds it, to math/rand's source draw for draw.
func TestDaySourceMatchesMathRand(t *testing.T) {
	rng := dayRands.Get().(*mrand.Rand)
	defer dayRands.Put(rng)
	for _, seed := range daySourceSeeds() {
		if diff := daySourceDiff(rng, seed); diff != "" {
			t.Fatal(diff)
		}
	}
}

func FuzzDaySource(f *testing.F) {
	for _, seed := range daySourceSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := dayRands.Get().(*mrand.Rand)
		defer dayRands.Put(rng)
		if diff := daySourceDiff(rng, seed); diff != "" {
			t.Fatal(diff)
		}
	})
}

// TestDeriveSeedMatchesFprintf pins DeriveSeed's bytes to the fmt form it
// replaced, for every key type and domain its callers pass — the grid's
// epoch seeds included.
func TestDeriveSeedMatchesFprintf(t *testing.T) {
	for _, c := range []struct {
		domain string
		seed   int64
		key    any
	}{
		{"home", 20200425, 0},
		{"home", 7, 299},
		{"home", -1, -42},
		{"fleet", math.MinInt64, math.MinInt},
		{"fleet", math.MaxInt64, math.MaxInt},
		{"evolve", -20200425, "boundary/3"},
		{"evolve", 7, "join/12/0"},
		{"evolve", 7, "day/4/e03-home-01"},
		{"evolve", 0, ""},
		{"evolve", -9, fmt.Sprintf("day/%d/%s", 1<<40, "c123456-home-123456789-past-a-64-byte-buffer")},
		{"grid/epoch", -20200425, 0},
		{"grid/epoch", -20200425, 31},
		{"grid/epoch", math.MinInt64, 0},
		{"grid/epoch", math.MinInt64, 31},
		{"grid/epoch", math.MaxInt64, 0},
		{"grid/epoch", math.MaxInt64, 31},
	} {
		h := fnv.New64a()
		fmt.Fprintf(h, "pem/%s/%d/%v", c.domain, c.seed, c.key)
		var got int64
		switch k := c.key.(type) {
		case int:
			got = DeriveSeed(c.domain, c.seed, k)
		case string:
			got = DeriveSeed(c.domain, c.seed, k)
		}
		if want := int64(h.Sum64()); got != want {
			t.Errorf("DeriveSeed(%q, %d, %#v) = %d, fmt form %d", c.domain, c.seed, c.key, got, want)
		}
	}
}

// BenchmarkDaySeed reseeds math/rand's source and the replica behind
// dayRands: the per-home-day cost of synthesis before its first draw.
func BenchmarkDaySeed(b *testing.B) {
	for _, c := range []struct {
		name string
		rng  *mrand.Rand
	}{
		{"stdlib", mrand.New(mrand.NewSource(0))},
		{"replica", mrand.New(new(daySource))},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				c.rng.Seed(int64(i))
			}
		})
	}
}
