package transport

import "sync"

// windowKey names one window of one scope: the unit a window namespace tag
// (see WindowTag and ScopedWindowTag) attributes its message to.
type windowKey struct {
	scope  string
	window int
}

// windowCounters holds one live window's traffic.
type windowCounters struct {
	bytes, msgs int64
}

// Metrics is a bus's traffic sink. It keeps two kinds of figure: the totals
// over every message sent — the Table I bandwidth ("average bandwidth over m
// trading windows of all the smart homes") — and, for each window still
// running, that window's bytes and messages. A message is attributed to the
// (scope, window) its tag names, so windows executing concurrently —
// same-numbered windows of different coalitions on one bus included — are
// counted apart.
//
// A window's counters live only as long as the window: the engine copies
// them into the window's WindowResult and then folds them (FoldWindow), so
// the sink holds O(windows in flight) however long a run goes. Every
// per-window, per-coalition or per-epoch figure is read from those results,
// never from here.
type Metrics struct {
	mu      sync.Mutex
	windows map[windowKey]*windowCounters
	totalB  int64
	totalM  int64
}

// NewMetrics creates an empty sink.
func NewMetrics() *Metrics {
	return &Metrics{windows: make(map[windowKey]*windowCounters)}
}

func (m *Metrics) recordSend(tag string, n int) {
	scope, w, _, scoped := ParseScopedWindowTag(tag)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.totalB += int64(n)
	m.totalM++
	if !scoped {
		return
	}
	k := windowKey{scope, w}
	wc := m.windows[k]
	if wc == nil {
		wc = &windowCounters{}
		m.windows[k] = wc
	}
	wc.bytes += int64(n)
	wc.msgs++
}

// FoldWindow drops one completed window's counters; the totals keep its
// traffic. The engine calls it once the window's WindowResult has captured
// them, failed windows included, so later queries for that window read zero.
func (m *Metrics) FoldWindow(scope string, window int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.windows, windowKey{scope, window})
}

// ScopedWindowBytes returns the bytes sent so far within one live window of
// one scope. The empty scope reads the unscoped (solo-engine) namespace.
func (m *Metrics) ScopedWindowBytes(scope string, window int) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if wc := m.windows[windowKey{scope, window}]; wc != nil {
		return wc.bytes
	}
	return 0
}

// ScopedWindowMessages returns the messages sent so far within one live
// window of one scope, mirroring ScopedWindowBytes.
func (m *Metrics) ScopedWindowMessages(scope string, window int) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if wc := m.windows[windowKey{scope, window}]; wc != nil {
		return wc.msgs
	}
	return 0
}

// TotalBytes returns the total bytes sent across all parties.
func (m *Metrics) TotalBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.totalB
}

// TotalMessages returns the total number of messages sent.
func (m *Metrics) TotalMessages() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.totalM
}

// LiveWindows reports how many windows the sink currently holds counters
// for — zero once every window a run started has been folded. Tests use it
// to assert that contract; it is not a traffic metric.
func (m *Metrics) LiveWindows() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.windows)
}
