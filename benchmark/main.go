// Command benchmark measures the Private Energy Market end to end and layer
// by layer on four seeded workloads. See README.md next to this file for
// the metric and workload tables and how to run, trace and compare.
//
//	bash benchmark/run.sh --workload day.hybrid --seed 7 --seconds 20 --trace 0
//	bash benchmark/run.sh -out benchmark/out/base.json [-seed N] [-runs N]
//	bash benchmark/run.sh -compare A.json B.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process and print its result as the last line")
		seed     = flag.Int64("seed", defaultSeed, "seed of every generator (dataset, churn, partition, Config.Seed)")
		seconds  = flag.Int("seconds", 0, "stop issuing work after this many measured seconds; 0 runs the workload's whole size")
		traced   = flag.Int("trace", 0, "1 = the traced run: per-layer metrics and a span file instead of end-to-end metrics")
		scratch  = flag.String("scratch", "benchmark/out", "directory for the WAL file and trace files")
		detail   = flag.String("detail", "", "with -workload: also write the full report as JSON to this file")
		out      = flag.String("out", "", "run every workload, each in a fresh child process, and write the summary JSON to this file")
		runs     = flag.Int("runs", 1, "with -out: untraced runs per workload (the summary keeps median and quartiles)")
		compare  = flag.Bool("compare", false, "compare two summary files: -compare BASE.json NEW.json")
	)
	flag.Parse()
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two summary files")
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *workload != "":
		err = runOne(ctx, *workload, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *scratch, *detail)
	case *out != "":
		err = runAll(ctx, *seed, *seconds, *runs, *scratch, *out)
	default:
		err = errors.New("one of -workload, -out or -compare is required")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned after the result line of a run whose outputs
// disagree with the oracle, so the process exits non-zero.
var errIncorrect = errors.New("outputs disagree with the oracle")

// run executes one workload in this process. The untraced run yields the
// end-to-end metrics; the traced run adds the spans, the decorators and the
// layer probes and yields the per-layer metrics.
func run(ctx context.Context, workload string, sz sizes, seed int64, budget time.Duration, traced bool, scratch string) (*report, error) {
	var tr *tracer
	if traced {
		tr = newTracer(workload)
	}
	var (
		r       *report
		latency []float64
		err     error
	)
	switch workload {
	case "day.paillier", "day.hybrid":
		backend := strings.TrimPrefix(workload, "day.")
		if traced {
			r, latency, err = runDayTraced(ctx, backend, sz, seed, budget, tr)
		} else {
			r, err = runDay(ctx, backend, sz, seed, budget)
		}
	case "grid.live-wal":
		r, latency, err = runLive(ctx, sz, seed, budget, scratch, tr)
	case "fleet.tiered":
		r, latency, err = runFleet(ctx, sz, seed, budget, tr)
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return nil, err
	}
	if traced {
		if err := probeLayers(ctx, r, sz, seed, tr); err != nil {
			return nil, err
		}
		r.set("grid.peak_rss_mib", peakRSS())
		nerr := checkNesting(tr.spans)
		r.check(nerr == nil, "spans do not nest: %v", nerr)
		path, err := tr.write(scratch, seed, latency)
		if err != nil {
			return nil, err
		}
		fmt.Printf("# %d spans written to %s\n", len(tr.spans), path)
	}
	r.finish()
	return r, nil
}

// result is the last line of a -workload run: the driver's contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOne is the -workload mode.
func runOne(ctx context.Context, workload string, seed int64, budget time.Duration, traced bool, scratch, detail string) error {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	r, err := run(ctx, workload, fullSizes, seed, budget, traced, scratch)
	if err != nil {
		return err
	}
	r.print()
	if detail != "" {
		if err := writeJSON(detail, r); err != nil {
			return err
		}
	}
	res := result{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]metric)}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		res.Metrics[d.Name] = r.Metrics[d.Name]
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// peakRSS reads the process's resident-set high-water mark (MiB).
func peakRSS() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		var kb float64
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024
		}
	}
	return 0
}
