package netem

import (
	"fmt"
	"sort"
	"time"
)

// LinkParams describe one directed party-pair link of an emulated network.
// The zero value means "ideal wire": no latency, no jitter, infinite
// bandwidth, no loss.
type LinkParams struct {
	// Latency is the one-way propagation delay of the link.
	Latency time.Duration
	// Jitter is the maximum deviation applied around Latency. Each message
	// draws a deterministic offset in (−Jitter, +Jitter) from the network's
	// seeded stream, so two runs see the very same jitter realizations.
	Jitter time.Duration
	// Bandwidth is the link throughput in bytes per second; every message
	// additionally pays wireSize/Bandwidth of serialization delay. Zero
	// means infinite bandwidth.
	Bandwidth int64
	// Loss is the per-transmission loss probability in [0, 1). The PEM
	// protocols are not loss-tolerant, so a loss is modeled as a reliable-
	// transport retransmission: the message still arrives, delayed by one
	// RTO per lost attempt (capped at maxRetransmits), exactly like TCP
	// under light loss.
	Loss float64
	// RTO is the retransmission timeout charged per lost attempt. Zero
	// derives the classic estimate 3·Latency + 4·Jitter (floored at 1ms).
	RTO time.Duration
}

// maxRetransmits caps the retransmission tail so a pathological Loss value
// cannot stall virtual time unboundedly.
const maxRetransmits = 4

// withDefaults resolves derived fields (currently only RTO).
func (p LinkParams) withDefaults() LinkParams {
	if p.RTO == 0 {
		p.RTO = 3*p.Latency + 4*p.Jitter
		if p.RTO < time.Millisecond {
			p.RTO = time.Millisecond
		}
	}
	return p
}

// validate rejects parameter combinations the delay model cannot price.
func (p LinkParams) validate() error {
	if p.Latency < 0 || p.Jitter < 0 || p.Bandwidth < 0 || p.RTO < 0 {
		return fmt.Errorf("netem: negative link parameter %+v", p)
	}
	if p.Loss < 0 || p.Loss >= 1 {
		return fmt.Errorf("netem: loss probability %g outside [0, 1)", p.Loss)
	}
	return nil
}

// Topology assigns link parameters to party pairs. Preset builds the five
// named presets; tests and custom experiments may fill the struct directly.
type Topology struct {
	// Name labels the topology in reports and CSV output.
	Name string
	// Base is the nominal link every pair starts from.
	Base LinkParams
	// Spread is the relative per-pair latency variation: each unordered
	// party pair scales Base.Latency by a deterministic factor in
	// [1−Spread, 1+Spread] drawn from the network seed, so a "40ms WAN" is
	// a cloud of 30–50ms links rather than a perfectly uniform star.
	Spread float64
}

// Topology preset names accepted by Preset (and by the public
// pem.Config.Network knob).
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

// presets maps each preset name to its nominal link. Bandwidths are in
// bytes/second (the wire accounting is in bytes).
var presets = map[string]Topology{
	TopologyLAN: {
		Name:   TopologyLAN,
		Base:   LinkParams{Latency: 100 * time.Microsecond, Jitter: 20 * time.Microsecond, Bandwidth: 125_000_000},
		Spread: 0.10,
	},
	TopologyMetro: {
		Name:   TopologyMetro,
		Base:   LinkParams{Latency: 5 * time.Millisecond, Jitter: 500 * time.Microsecond, Bandwidth: 25_000_000, Loss: 0.0001},
		Spread: 0.15,
	},
	TopologyWAN: {
		Name:   TopologyWAN,
		Base:   LinkParams{Latency: 40 * time.Millisecond, Jitter: 5 * time.Millisecond, Bandwidth: 6_250_000, Loss: 0.001},
		Spread: 0.25,
	},
	TopologyCellular: {
		Name:   TopologyCellular,
		Base:   LinkParams{Latency: 80 * time.Millisecond, Jitter: 15 * time.Millisecond, Bandwidth: 2_500_000, Loss: 0.005},
		Spread: 0.25,
	},
	TopologyLossy: {
		Name:   TopologyLossy,
		Base:   LinkParams{Latency: 40 * time.Millisecond, Jitter: 10 * time.Millisecond, Bandwidth: 2_500_000, Loss: 0.03},
		Spread: 0.25,
	},
}

// Preset returns the named topology preset. The empty name is an error:
// callers gate emulation on the name before resolving it.
func Preset(name string) (Topology, error) {
	t, ok := presets[name]
	if !ok {
		return Topology{}, fmt.Errorf("netem: unknown topology %q (have %v)", name, Presets())
	}
	return t, nil
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

// ValidPreset reports whether name is a known topology preset.
func ValidPreset(name string) bool {
	_, ok := presets[name]
	return ok
}

// link resolves the directed pair's parameters: Base scaled by the pair's
// deterministic latency spread. The spread factor is symmetric (hashing the
// sorted pair) so both directions of a link share one propagation delay,
// like a real circuit.
func (t Topology) link(seed int64, from, to string) LinkParams {
	p := t.Base
	if t.Spread > 0 {
		a, b := from, to
		if a > b {
			a, b = b, a
		}
		u := hashDraw(seed, "spread", a, b, "", 0, 0)
		f := 1 + t.Spread*(unitFloat(u)*2-1)
		p.Latency = time.Duration(float64(p.Latency) * f)
		p.Jitter = time.Duration(float64(p.Jitter) * f)
	}
	return p.withDefaults()
}

// validate checks the topology's spread and base link.
func (t Topology) validate() error {
	if t.Spread < 0 || t.Spread >= 1 {
		return fmt.Errorf("netem: latency spread %g outside [0, 1)", t.Spread)
	}
	return t.Base.validate()
}
