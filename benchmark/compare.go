package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// The -compare mode: the trajectory diff between two summary files, one row
// per (workload, end-to-end metric).

func readSummary(path string) (*summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s summary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// verdict judges new against base for one metric. A metric whose
// run-to-run spread (quartile distance over median, on either side) is
// wider than its bound is unresolved, whatever the medians say.
func verdict(d metricDef, base, cur stat) string {
	for _, s := range []stat{base, cur} {
		if len(s.Values) > 1 && s.Value != 0 && (s.Q3-s.Q1)/s.Value > d.Bound {
			return "unresolved"
		}
	}
	// worse is how far new moved in the bad direction, as a share of base
	// (absolute when base is 0, which only failed_share can be).
	worse := cur.Value - base.Value
	if d.Better == "higher" {
		worse = -worse
	}
	if base.Value != 0 {
		worse /= base.Value
	}
	switch {
	case worse > d.Bound:
		return "worse"
	case worse < -d.Bound:
		return "better"
	}
	return "unchanged"
}

// compareFiles prints the diff and fails if any metric is worse, or if two
// files of one seed and one commit disagree on an exact-repeat figure.
func compareFiles(w io.Writer, basePath, newPath string) error {
	base, err := readSummary(basePath)
	if err != nil {
		return err
	}
	cur, err := readSummary(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base %s: seed %d, %d run(s), commit %s\n", basePath, base.Seed, base.Runs, base.Env.Commit)
	fmt.Fprintf(w, "new  %s: seed %d, %d run(s), commit %s\n", newPath, cur.Seed, cur.Runs, cur.Env.Commit)
	fmt.Fprintf(w, "%-14s %-22s %14s %14s %8s %6s  %s\n", "workload", "metric", "base", "new", "ratio", "bound", "verdict")

	var worse []string
	for _, wl := range workloads {
		b, okB := base.Workloads[wl.Name]
		c, okC := cur.Workloads[wl.Name]
		if !okB || !okC {
			return fmt.Errorf("workload %s is missing from one file", wl.Name)
		}
		for _, defs := range [][]metricDef{endToEnd, exactEndToEnd} {
			for _, d := range defs {
				bs, cs := b.EndToEnd[d.Name], c.EndToEnd[d.Name]
				v := verdict(d, bs, cs)
				fmt.Fprintf(w, "%-14s %-22s %14.6g %14.6g %8.4f %6.2f  %s\n",
					wl.Name, d.Name, bs.Value, cs.Value, ratio(cs.Value, bs.Value), d.Bound, v)
				if v == "worse" {
					worse = append(worse, wl.Name+"/"+d.Name)
				}
			}
		}
	}

	// Exact-repeat guard: same seed, same commit, both full-size ⇒ the
	// generators are seeded and the timing decorators change no output.
	var drift []string
	comparable := base.Seed == cur.Seed && base.Env.Commit == cur.Env.Commit && base.Seconds == 0 && cur.Seconds == 0
	for _, wl := range workloads {
		b, c := base.Workloads[wl.Name], cur.Workloads[wl.Name]
		var pairs []exactPair
		// Time-limited runs cover different prefixes, so only full-size
		// runs are held to their own traced twin.
		if base.Seconds == 0 {
			pairs = append(pairs, exactPair{"base, traced vs untraced", b.Exact, b.ExactTraced})
		}
		if cur.Seconds == 0 {
			pairs = append(pairs, exactPair{"new, traced vs untraced", c.Exact, c.ExactTraced})
		}
		if comparable {
			pairs = append(pairs,
				exactPair{"base vs new", b.Exact, c.Exact},
				exactPair{"base vs new, traced", b.ExactTraced, c.ExactTraced})
		}
		for _, p := range pairs {
			for _, k := range sharedKeys(p.x, p.y) {
				if p.x[k] != p.y[k] {
					drift = append(drift, fmt.Sprintf("%s %s (%s): %s vs %s", wl.Name, k, p.what, p.x[k], p.y[k]))
				}
			}
		}
	}
	if comparable {
		fmt.Fprintln(w, "exact-repeat guard: same seed, same commit, full-size runs — every exact figure must agree")
	} else {
		fmt.Fprintln(w, "exact-repeat guard: files differ in seed, commit or run length — checking traced against untraced only")
	}
	for _, d := range drift {
		fmt.Fprintln(w, "EXACT MISMATCH:", d)
	}
	switch {
	case len(drift) > 0:
		return fmt.Errorf("%d exact-repeat figure(s) disagree", len(drift))
	case len(worse) > 0:
		return fmt.Errorf("worse beyond the bound: %v", worse)
	}
	return nil
}

// exactPair is two sets of exact-repeat figures that must agree on every key
// they share.
type exactPair struct {
	what string
	x, y map[string]string
}

// sharedKeys lists, sorted, the keys present in both maps.
func sharedKeys(a, b map[string]string) []string {
	var keys []string
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
