package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/pem-go/pem"
	"github.com/pem-go/pem/internal/ot"
)

// tinySizes has fullSizes' shape at a size the whole suite runs in seconds:
// 8 homes, 512-bit keys, 4 windows, 2 epochs, a 200-home fleet.
var tinySizes = sizes{
	homes: 8, dayWindows: 4, startHour: 12, keyBits: 512,
	paillierLo: 0, paillierHi: 4,
	paillierWarmup: 1, hybridWarmup: 1,
	netemLo: 0, netemHi: 2,

	liveBlocks: 2, liveHomesPerBlock: 4, liveWindows: 4, liveEpochs: 2, liveCoalitions: 2,
	churn: pem.ChurnConfig{JoinRate: 0.20, DepartRate: 0.12, FailRate: 0.08},

	fleetCoalitions: 100, fleetDays: 2, tiers: []int{8, 4, 4}, fleetSample: 10, fleetChunk: 10,

	probeCalls: 5, probeKeys: 2, probeReps: 1,
	otGroup: ot.TestGroup(),

	setupReps: 2,
}

// wantMetrics checks that every listed metric is present, finite and
// unit-tagged.
func wantMetrics(t *testing.T, r *report, defs []metricDef) {
	t.Helper()
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", r.Workload, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", r.Workload, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s is %v", r.Workload, d.Name, m.Value)
		}
	}
}

func TestWorkloads(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			dir := t.TempDir()
			plain, err := run(ctx, w.Name, tinySizes, 7, 0, false, dir)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := run(ctx, w.Name, tinySizes, 7, 0, true, dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*report{plain, traced} {
				if r.Failed != 0 || r.Attempted == 0 {
					t.Errorf("traced=%v: %d of %d failed: %v", r.Traced, r.Failed, r.Attempted, r.Failures)
				}
			}
			wantMetrics(t, plain, endToEnd)
			wantMetrics(t, plain, exactEndToEnd)
			wantMetrics(t, traced, perLayer)
			for _, d := range endToEnd {
				if plain.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v: the driver admits no zero", d.Name, plain.Metrics[d.Name].Value)
				}
			}
			// The decorators must leave every output bit-identical: ledger
			// heads, wire bytes, message counts, WAL size.
			for _, k := range sharedKeys(plain.Exact, traced.Exact) {
				if plain.Exact[k] != traced.Exact[k] {
					t.Errorf("exact figure %s: untraced %s, traced %s", k, plain.Exact[k], traced.Exact[k])
				}
			}
			if len(sharedKeys(plain.Exact, traced.Exact)) == 0 {
				t.Error("no exact-repeat figures shared by the traced and untraced runs")
			}
			if w.Name != "grid.live-wal" && traced.Metrics["store.calls"].Value != 0 {
				t.Errorf("store.calls = %v outside grid.live-wal", traced.Metrics["store.calls"].Value)
			}
			checkTraceFile(t, filepath.Join(dir, "trace-"+w.Name+".json"), w.Name, traced)
		})
	}
}

// checkTraceFile holds the written spans to the attribution rules: every
// span nests inside its parent, a window's children sum to it within 5 %,
// and the engine's window is no longer than the window around it.
func checkTraceFile(t *testing.T, path, workload string, traced *report) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 {
		t.Fatal("no spans")
	}
	if err := checkNesting(tf.Spans); err != nil {
		t.Error(err)
	}
	children := make(map[int]int64)
	for _, s := range tf.Spans {
		if s.Workload != workload {
			t.Errorf("span %d tagged %q", s.ID, s.Workload)
		}
		children[s.Parent] += s.End - s.Start
	}
	var windows, windowNs, childNs int64
	for _, s := range tf.Spans {
		if s.Layer == "bench" && s.Name == "window" {
			windows++
			windowNs += s.End - s.Start
			childNs += children[s.ID]
		}
	}
	if strings.HasPrefix(workload, "day.") {
		if windows == 0 {
			t.Fatal("no window spans")
		}
		// Summed over the run: at these sizes one window's gap is a few
		// clock reads against a millisecond of work.
		if gap := float64(windowNs-childNs) / float64(windowNs); gap < 0 || gap > 0.05 {
			t.Errorf("window children cover %.1f%% of their windows, want ≥ 95%%", 100*(1-gap))
		}
		if core, win := traced.Metrics["core.window_ms"].Value, traced.Metrics["trace.window_ms_p50"].Value; core > win {
			t.Errorf("core.window_ms %v exceeds the traced window_ms_p50 %v", core, win)
		}
	}
	if tf.Layers["bench"].Spans == 0 {
		t.Error("no layer summary")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the tables in
// report.go.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var got struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(got.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got.Workloads[i].Name != w.Name || got.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, want %+v", i, got.Workloads[i], w)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, have []jsonMetric, want []metricDef, bounded bool) {
		if len(have) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(have), len(want))
		}
		for i, d := range want {
			h := have[i]
			if h.Name != d.Name || h.Unit != d.Unit || h.Better != d.Better {
				t.Errorf("%s %d: %+v, want %+v", kind, i, h, d)
			}
			if bounded != (h.Bound != nil) || (bounded && *h.Bound != d.Bound) {
				t.Errorf("%s %s: bound %v, want %v (present=%v)", kind, d.Name, h.Bound, d.Bound, bounded)
			}
		}
	}
	same("end_to_end", got.EndToEnd, endToEnd, true)
	same("per_layer", got.PerLayer, perLayer, false)
	if len(got.Paths) != 1 || got.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", got.Paths)
	}
}

// TestCompare runs -compare over synthetic summaries: verdicts, the spread
// rule and the exact-repeat guard.
func TestCompare(t *testing.T) {
	mk := func(p50 float64, values []float64, head string) *summary {
		s := &summary{Workloads: make(map[string]workloadSummary)}
		for _, w := range workloads {
			ws := workloadSummary{EndToEnd: make(map[string]stat), Exact: map[string]string{"ledger_head": head}, ExactTraced: map[string]string{"ledger_head": head}}
			for _, defs := range [][]metricDef{endToEnd, exactEndToEnd} {
				for _, d := range defs {
					ws.EndToEnd[d.Name] = stat{Value: 1, Unit: d.Unit}
				}
			}
			ws.EndToEnd["window_ms_p50"] = stat{Value: p50, Unit: "ms", Q1: quantile(values, 0.25), Q3: quantile(values, 0.75), Values: values}
			s.Workloads[w.Name] = ws
		}
		return s
	}
	write := func(name string, s *summary) string {
		path := filepath.Join(t.TempDir(), name)
		if err := writeJSON(path, s); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", mk(100, nil, "aa"))
	for _, tc := range []struct {
		name    string
		cur     *summary
		want    string
		wantErr bool
	}{
		{"unchanged", mk(110, nil, "aa"), "unchanged", false},
		{"better", mk(60, nil, "aa"), "better", false},
		{"worse", mk(140, nil, "aa"), "worse", true},
		{"unresolved", mk(140, []float64{90, 110, 140, 200}, "aa"), "unresolved", false},
		{"exact drift", mk(100, nil, "bb"), "EXACT MISMATCH", true},
	} {
		var out bytes.Buffer
		err := compareFiles(&out, base, write("new.json", tc.cur))
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, want error %v", tc.name, err, tc.wantErr)
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: output lacks %q:\n%s", tc.name, tc.want, out.String())
		}
	}
}
