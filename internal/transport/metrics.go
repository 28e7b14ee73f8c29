package transport

import (
	"context"
	"sync/atomic"
)

// Metrics is a bus's traffic sink: the totals over every message sent —
// the Table I bandwidth ("average bandwidth over m trading windows of all
// the smart homes").
//
// A window's own traffic rides its context, not the sink: OpenWindow
// attaches fresh counters, every Send under that context (or one derived
// from it) adds to them, and EndWindow reads them back for the window's
// WindowResult. Windows executing concurrently — same-numbered windows of
// different coalitions on one bus included — therefore count apart, and
// the sink holds no per-window state however long a run goes. Traffic
// whose context carries no window (the key exchange, a standalone party's
// windows) lands in the totals only.
type Metrics struct {
	totalB, totalM atomic.Int64
	live           atomic.Int64
}

// windowKey keys the traffic counters a window's context carries.
type windowKey struct{}

// windowTraffic is one open window's bytes and messages.
type windowTraffic struct {
	sink        *Metrics
	bytes, msgs atomic.Int64
}

// NewMetrics creates an empty sink.
func NewMetrics() *Metrics { return &Metrics{} }

// OpenWindow returns a context carrying one window's fresh traffic
// counters. Close it with EndWindow once the window's last send is done.
func (m *Metrics) OpenWindow(ctx context.Context) context.Context {
	m.live.Add(1)
	return context.WithValue(ctx, windowKey{}, &windowTraffic{sink: m})
}

// EndWindow closes the window ctx carries and returns the bytes and
// messages sent under it; the sink's totals keep that traffic. A context
// without a window returns zero. Call it once per OpenWindow.
func EndWindow(ctx context.Context) (bytes, msgs int64) {
	w, ok := ctx.Value(windowKey{}).(*windowTraffic)
	if !ok {
		return 0, 0
	}
	w.sink.live.Add(-1)
	return w.bytes.Load(), w.msgs.Load()
}

func (m *Metrics) recordSend(ctx context.Context, n int) {
	m.totalB.Add(int64(n))
	m.totalM.Add(1)
	if w, ok := ctx.Value(windowKey{}).(*windowTraffic); ok {
		w.bytes.Add(int64(n))
		w.msgs.Add(1)
	}
}

// TotalBytes returns the total bytes sent across all parties.
func (m *Metrics) TotalBytes() int64 { return m.totalB.Load() }

// TotalMessages returns the total number of messages sent.
func (m *Metrics) TotalMessages() int64 { return m.totalM.Load() }

// LiveWindows reports how many windows opened on this sink are not yet
// ended — zero once every window a run started has ended. Tests use it to
// assert that contract; it is not a traffic metric.
func (m *Metrics) LiveWindows() int { return int(m.live.Load()) }
