package docscheck

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var (
	// benchPoint matches one point of the committed trajectory at the
	// repository root. The raw no-regression pairs committed beside it,
	// BENCH_<pr>-pairs.json, are not a point.
	benchPoint = regexp.MustCompile(`^BENCH_(\d+)\.json$`)
	// changesEntry matches the first line of one PR's CHANGES.md entry.
	changesEntry = regexp.MustCompile(`(?m)^PR (\d+):`)
)

// benchSummary is the part of a `bash benchmark/run.sh -out` summary the
// trajectory reads: each workload's exact block holds the figures a seeded
// whole-size run repeats bit for bit (ledger head, wire bytes, messages,
// WAL bytes).
type benchSummary struct {
	Seed      int64 `json:"seed"`
	Seconds   int   `json:"seconds"`
	Workloads map[string]struct {
		Exact map[string]string `json:"exact"`
	} `json:"workloads"`
}

// TestBenchTrajectory reads every committed BENCH_<pr>.json in PR order.
// Each must be a whole-size run on the series' seed with an exact block per
// workload, and those blocks must equal the previous file's unless the later
// PR's CHANGES.md entry says "re-baseline" — so a seeded output (a ledger
// head, wire_bytes, wal_bytes) cannot move without a PR saying so.
func TestBenchTrajectory(t *testing.T) {
	if err := checkTrajectory(repoRoot(t)); err != nil {
		t.Error(err)
	}
}

// checkTrajectory applies TestBenchTrajectory's rules to the BENCH files and
// CHANGES.md in root.
func checkTrajectory(root string) error {
	files, err := os.ReadDir(root)
	if err != nil {
		return err
	}
	type point struct {
		pr  int
		sum benchSummary
	}
	var points []point
	for _, f := range files {
		m := benchPoint.FindStringSubmatch(f.Name())
		if m == nil {
			continue
		}
		p := point{}
		p.pr, _ = strconv.Atoi(m[1])
		raw, err := os.ReadFile(filepath.Join(root, f.Name()))
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &p.sum); err != nil {
			return fmt.Errorf("%s: %w", f.Name(), err)
		}
		if p.sum.Seconds != 0 || len(p.sum.Workloads) == 0 {
			return fmt.Errorf("%s: not a whole-size run (seconds %d, %d workloads)", f.Name(), p.sum.Seconds, len(p.sum.Workloads))
		}
		for name, w := range p.sum.Workloads {
			if len(w.Exact) == 0 {
				return fmt.Errorf("%s: workload %s has no exact block", f.Name(), name)
			}
		}
		points = append(points, p)
	}
	if len(points) == 0 {
		return fmt.Errorf("no BENCH_<pr>.json in %s", root)
	}
	sort.Slice(points, func(i, j int) bool { return points[i].pr < points[j].pr })

	changes, err := os.ReadFile(filepath.Join(root, "CHANGES.md"))
	if err != nil {
		return err
	}
	entries := map[int]string{}
	starts := changesEntry.FindAllSubmatchIndex(changes, -1)
	for i, s := range starts {
		end := len(changes)
		if i+1 < len(starts) {
			end = starts[i+1][0]
		}
		pr, _ := strconv.Atoi(string(changes[s[2]:s[3]]))
		entries[pr] = string(changes[s[0]:end])
	}

	var drift []string
	for i := 1; i < len(points); i++ {
		prev, cur := points[i-1], points[i]
		if cur.sum.Seed != prev.sum.Seed {
			return fmt.Errorf("BENCH_%d.json is seed %d, BENCH_%d.json seed %d: the series has one seed", cur.pr, cur.sum.Seed, prev.pr, prev.sum.Seed)
		}
		if reflect.DeepEqual(prev.sum.Workloads, cur.sum.Workloads) || strings.Contains(entries[cur.pr], "re-baseline") {
			continue
		}
		// Walk both sides, so a figure or workload that appears or vanishes
		// counts as drift too.
		for _, side := range []benchSummary{prev.sum, cur.sum} {
			for name, w := range side.Workloads {
				for k := range w.Exact {
					was, is := prev.sum.Workloads[name].Exact[k], cur.sum.Workloads[name].Exact[k]
					if d := fmt.Sprintf("%s %s: PR %d %q, PR %d %q", name, k, prev.pr, was, cur.pr, is); was != is && !slices.Contains(drift, d) {
						drift = append(drift, d)
					}
				}
			}
		}
	}
	if len(drift) > 0 {
		sort.Strings(drift)
		return fmt.Errorf("exact figures moved without a re-baseline line in CHANGES.md:\n  %s", strings.Join(drift, "\n  "))
	}
	return nil
}
