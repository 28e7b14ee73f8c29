package netem

import (
	"sort"
	"time"
)

// Topology preset names: the only networks New builds (and the values of
// the public pem.Config.Network knob).
const (
	// TopologyLAN models a switched local network: 100µs links, gigabit
	// bandwidth, no loss. The natural baseline — virtually indistinguishable
	// from the in-memory bus.
	TopologyLAN = "lan"
	// TopologyMetro models a metropolitan-area utility network: 5ms links,
	// 200 Mbit/s.
	TopologyMetro = "metro"
	// TopologyWAN models a wide-area deployment across regions: 40ms links,
	// 50 Mbit/s, light loss.
	TopologyWAN = "wan"
	// TopologyCellular models smart meters on a cellular uplink: 80ms links
	// with heavy jitter, 20 Mbit/s, moderate loss.
	TopologyCellular = "cellular"
	// TopologyLossy models a degraded long-haul path: WAN-like delay with
	// 3% loss, so retransmission cost dominates.
	TopologyLossy = "lossy"
)

// preset is one emulated network's link model. As a presets entry it is the
// nominal link every party pair starts from; pair resolves one pair's link.
type preset struct {
	// latency is the one-way propagation delay.
	latency time.Duration
	// jitter bounds each message's seeded offset in (−jitter, +jitter)
	// around latency.
	jitter time.Duration
	// bandwidth is in bytes per second (the wire accounting is in bytes);
	// every message pays wireSize/bandwidth of serialization. Zero is
	// infinite.
	bandwidth int64
	// loss is the per-transmission loss probability. The PEM protocols are
	// not loss-tolerant, so a loss is a reliable-transport retransmission:
	// the message still arrives, one RTO later per lost attempt (at most
	// maxRetransmits), like TCP under light loss.
	loss float64
	// spread is the relative per-pair variation: each unordered pair scales
	// latency and jitter by a seeded factor in [1−spread, 1+spread], so a
	// "40ms WAN" is a cloud of 30–50ms links rather than a uniform star.
	spread float64
}

// maxRetransmits caps the retransmission tail so a lossy draw cannot stall
// virtual time unboundedly.
const maxRetransmits = 4

// presets maps each preset name to its nominal link. TestPresets pins every
// figure.
var presets = map[string]preset{
	TopologyLAN:      {latency: 100 * time.Microsecond, jitter: 20 * time.Microsecond, bandwidth: 125_000_000, spread: 0.10},
	TopologyMetro:    {latency: 5 * time.Millisecond, jitter: 500 * time.Microsecond, bandwidth: 25_000_000, loss: 0.0001, spread: 0.15},
	TopologyWAN:      {latency: 40 * time.Millisecond, jitter: 5 * time.Millisecond, bandwidth: 6_250_000, loss: 0.001, spread: 0.25},
	TopologyCellular: {latency: 80 * time.Millisecond, jitter: 15 * time.Millisecond, bandwidth: 2_500_000, loss: 0.005, spread: 0.25},
	TopologyLossy:    {latency: 40 * time.Millisecond, jitter: 10 * time.Millisecond, bandwidth: 2_500_000, loss: 0.03, spread: 0.25},
}

// Presets lists the preset names in stable order.
func Presets() []string {
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// pair resolves the link between two parties: latency and jitter scaled by
// the pair's seeded spread factor. The factor hashes the sorted pair, so
// both directions share one propagation delay, like a real circuit.
func (p preset) pair(seed int64, from, to string) preset {
	a, b := min(from, to), max(from, to)
	f := 1 + p.spread*(unitFloat(hashDraw(seed, "spread", a, b, "", 0, 0))*2-1)
	p.latency = time.Duration(float64(p.latency) * f)
	p.jitter = time.Duration(float64(p.jitter) * f)
	return p
}

// rto is the retransmission timeout one lost attempt costs: the classic
// estimate 3·latency + 4·jitter, floored at 1ms.
func (p preset) rto() time.Duration {
	return max(3*p.latency+4*p.jitter, time.Millisecond)
}
