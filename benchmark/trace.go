package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own files
// around the library's exported functions and the two decorated interfaces.
// Start and End are nanoseconds since the traced run began; Parent is the ID
// of the span that caused this one (0 for a root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Window   int    `json:"window"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so code shared by traced and untraced runs calls it
// unconditionally.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span and returns its ID (0 on a nil tracer). window is -1
// for spans outside any trading window.
func (t *tracer) begin(parent int, layer, name string, window int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Layer: layer,
		Workload: t.workload, Window: window, Start: now, End: -1,
	})
	return id
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// layerTime is one layer's share of a traced run.
type layerTime struct {
	Spans   int     `json:"spans"`
	TotalMs float64 `json:"total_ms"`
	// SelfMs is each span's duration minus the part of its interval that its
	// child spans cover (children of one parent may overlap: the parties of
	// a window send and receive concurrently).
	SelfMs float64 `json:"self_ms"`
}

// layers folds the spans into per-layer total and self time.
func layers(spans []span) map[string]layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		lt := out[s.Layer]
		lt.Spans++
		lt.TotalMs += float64(s.End-s.Start) / 1e6
		lt.SelfMs += float64(s.End-s.Start-covered(children[s.ID])) / 1e6
		out[s.Layer] = lt
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, end int64
	for i, s := range spans {
		switch {
		case i == 0 || s.Start > end:
			total += s.End - s.Start
			end = s.End
		case s.End > end:
			total += s.End - end
			end = s.End
		}
	}
	return total
}

// checkNesting reports the first span that is unclosed or leaves its
// parent's interval.
func checkNesting(spans []span) error {
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s.%s) never ended", s.ID, s.Layer, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p := spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s.%s) [%d,%d] leaves parent %d (%s.%s) [%d,%d]",
				s.ID, s.Layer, s.Name, s.Start, s.End, p.ID, p.Layer, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// traceFile is what a traced run leaves in the scratch directory.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Latency holds the un-gated percentiles of the traced window latency.
	Latency map[string]float64   `json:"latency_ms"`
	Layers  map[string]layerTime `json:"layers"`
	Spans   []span               `json:"spans"`
}

// write stores the trace as trace-<workload>.json under dir.
func (t *tracer) write(dir string, seed int64, latency []float64) (string, error) {
	tf := traceFile{
		Workload: t.workload,
		Seed:     seed,
		Latency: map[string]float64{
			"n":   float64(len(latency)),
			"p50": quantile(latency, 0.50),
			"p90": quantile(latency, 0.90),
			"p95": quantile(latency, 0.95),
			"p99": quantile(latency, 0.99),
			"max": quantile(latency, 1),
		},
		Layers: layers(t.spans),
		Spans:  t.spans,
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(tf)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
