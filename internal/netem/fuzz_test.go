package netem

import (
	"math"
	"testing"
	"time"
)

// FuzzPrice holds the delay model to its bounds on every preset, for any
// seed, pair, tag, sequence number and message size up to 64 MiB: the draw
// is deterministic, the pipelined delay lies in [0, (latency + jitter)·(1 +
// spread)], occupancy is the serialization plus at most maxRetransmits
// RTOs, both directions of a pair share one latency, and nothing panics or
// reads NaN.
func FuzzPrice(f *testing.F) {
	f.Add(uint8(0), int64(7), "h00", "h01", "w0/p2", int64(0), uint32(64))
	f.Add(uint8(2), int64(20200425), "hr1", "hs", "c3/w330/p4", int64(9), uint32(1<<20))
	f.Add(uint8(3), int64(-1), "", "", "", int64(-1), uint32(math.MaxUint32))
	f.Add(uint8(4), int64(math.MinInt64), "a", "b", "keys/paillier", int64(math.MaxInt64), uint32(64<<20))
	names := Presets()
	f.Fuzz(func(t *testing.T, which uint8, seed int64, from, to, tag string, seq int64, rawSize uint32) {
		name := names[int(which)%len(names)]
		size := int(rawSize % (64<<20 + 1))
		n, err := New(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		base, link := n.preset, n.preset.pair(seed, from, to)

		if back := n.preset.pair(seed, to, from); back.latency != link.latency {
			t.Fatalf("%s: %s→%s latency %v, back %v", name, from, to, link.latency, back.latency)
		}
		// A NaN spread factor would convert to a duration far outside this band.
		lo := float64(base.latency) * (1 - base.spread)
		hi := float64(base.latency) * (1 + base.spread)
		if l := float64(link.latency); l < math.Floor(lo) || l > hi {
			t.Fatalf("%s: pair latency %v outside [%v, %v]", name, link.latency, lo, hi)
		}

		occ, pipe := n.price(from, to, tag, seq, size)
		if occ2, pipe2 := n.price(from, to, tag, seq, size); occ2 != occ || pipe2 != pipe {
			t.Fatalf("%s: draw not deterministic: %v/%v then %v/%v", name, occ, pipe, occ2, pipe2)
		}
		if ceil := float64(base.latency+base.jitter) * (1 + base.spread); pipe < 0 || float64(pipe) > ceil {
			t.Fatalf("%s: pipelined delay %v outside [0, %v]", name, pipe, time.Duration(ceil))
		}
		ser := time.Duration(int64(size) * int64(time.Second) / base.bandwidth)
		if retx := occ - ser; retx < 0 || retx > maxRetransmits*link.rto() || retx%link.rto() != 0 {
			t.Fatalf("%s: occupancy %v is not serialization %v plus at most %d RTOs of %v",
				name, occ, ser, maxRetransmits, link.rto())
		}
	})
}
