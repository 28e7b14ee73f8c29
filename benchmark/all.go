package main

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// The -out mode: every workload, each run in a fresh child process of this
// binary — so pools, GC state and the RSS high-water mark belong to one
// run — untraced -runs times for the end-to-end numbers, then traced once
// for the per-layer ones.

// stat is one metric of a summary: the median over the untraced runs with
// its quartiles, so -compare can tell a difference from the spread.
type stat struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// workloadSummary is one workload's part of a summary file.
type workloadSummary struct {
	Why       string `json:"why"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Samples   int    `json:"samples"`
	// EndToEnd comes from the untraced runs only.
	EndToEnd map[string]stat `json:"end_to_end"`
	// PerLayer comes from the one traced run.
	PerLayer map[string]metric `json:"per_layer"`
	// TraceOverhead is the traced run's window_ms_p50 over the untraced
	// median, minus one.
	TraceOverhead float64 `json:"trace_overhead"`
	// Exact holds the exact-repeat figures of the untraced runs, and
	// ExactTraced the traced run's: the decorators must leave them equal.
	Exact       map[string]string  `json:"exact"`
	ExactTraced map[string]string  `json:"exact_traced"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// environment is the recorded environment block.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

// summary is the -out file. Claim stays the last key and stays null: this
// benchmark defines the names later changes are judged with and claims no
// gain itself.
type summary struct {
	Seed      int64                      `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Runs      int                        `json:"runs"`
	Env       environment                `json:"env"`
	Workloads map[string]workloadSummary `json:"workloads"`
	Claim     *string                    `json:"claim"`
}

func recordEnvironment() environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// child runs one workload in a fresh process of this binary and returns its
// full report.
func child(ctx context.Context, workload string, seed int64, seconds, traced int, scratch string) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	detail := filepath.Join(scratch, fmt.Sprintf("detail-%s-%d.json", workload, traced))
	defer os.Remove(detail)
	cmd := exec.CommandContext(ctx, exe,
		"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(traced), "-scratch", scratch, "-detail", detail)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	data, err := os.ReadFile(detail)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// runAll is the -out mode.
func runAll(ctx context.Context, seed int64, seconds, runs int, scratch, out string) error {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	if runs < 1 {
		runs = 1
	}
	sum := summary{Seed: seed, Seconds: seconds, Runs: runs, Env: recordEnvironment(), Workloads: make(map[string]workloadSummary)}
	failed := false
	for _, w := range workloads {
		ws := workloadSummary{Why: w.Why, EndToEnd: make(map[string]stat), PerLayer: make(map[string]metric)}
		values := make(map[string][]float64)
		for i := 0; i < runs; i++ {
			r, err := child(ctx, w.Name, seed, seconds, 0, scratch)
			if err != nil {
				return err
			}
			for name, m := range r.Metrics {
				values[name] = append(values[name], m.Value)
			}
			if r.Full && i > 0 && !maps.Equal(ws.Exact, r.Exact) {
				return fmt.Errorf("%s: two untraced runs of seed %d disagree on the exact-repeat figures: %v vs %v", w.Name, seed, ws.Exact, r.Exact)
			}
			ws.Attempted += r.Attempted
			ws.Failed += r.Failed
			ws.Samples, ws.Exact, ws.Extra = r.Samples, r.Exact, r.Extra
		}
		for _, defs := range [][]metricDef{endToEnd, exactEndToEnd} {
			for _, d := range defs {
				v := values[d.Name]
				ws.EndToEnd[d.Name] = stat{Value: median(v), Unit: d.Unit, Q1: quantile(v, 0.25), Q3: quantile(v, 0.75), Values: v}
			}
		}
		// failed_share is over everything attempted, not a median of shares.
		fs := ws.EndToEnd["failed_share"]
		fs.Value = ratio(float64(ws.Failed), float64(ws.Attempted))
		ws.EndToEnd["failed_share"] = fs

		tr, err := child(ctx, w.Name, seed, seconds, 1, scratch)
		if err != nil {
			return err
		}
		for _, d := range perLayer {
			ws.PerLayer[d.Name] = tr.Metrics[d.Name]
		}
		ws.ExactTraced = tr.Exact
		ws.Attempted += tr.Attempted
		ws.Failed += tr.Failed
		ws.TraceOverhead = ratio(tr.Metrics["trace.window_ms_p50"].Value, ws.EndToEnd["window_ms_p50"].Value) - 1
		fmt.Printf("%-36s %16.6g ratio (traced over untraced window_ms_p50, minus 1)\n", w.Name+" trace_overhead", ws.TraceOverhead)
		if ws.Failed > 0 {
			failed = true
		}
		sum.Workloads[w.Name] = ws
	}
	if err := writeJSON(out, sum); err != nil {
		return err
	}
	fmt.Printf("# summary written to %s\n", out)
	if failed {
		return errIncorrect
	}
	return nil
}
