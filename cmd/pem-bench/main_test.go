package main

import (
	"strings"
	"testing"
)

func TestScaleResolution(t *testing.T) {
	cases := []struct {
		name        string
		opt         options
		wantHomes   int
		wantWindows int
	}{
		{"laptop defaults", options{}, 8, 4},
		{"full scale", options{full: true}, 200, 720},
		{"homes override", options{homes: 42}, 42, 4},
		{"windows override", options{windows: 99}, 8, 99},
		{"full with override", options{full: true, homes: 50}, 50, 720},
	}
	for _, c := range cases {
		homes := c.opt.sweep([]int{8}, []int{200}, c.opt.homes)[0]
		windows := c.opt.sweep([]int{4}, []int{720}, c.opt.windows)[0]
		if homes != c.wantHomes || windows != c.wantWindows {
			t.Errorf("%s: got %d/%d, want %d/%d", c.name, homes, windows, c.wantHomes, c.wantWindows)
		}
	}
}

func TestRunRejectsBadTargets(t *testing.T) {
	if err := run([]string{"-fig", "99"}); err == nil {
		t.Error("unknown figure accepted")
	}
	// The figures benchmark/ measures are gone from here.
	if err := run([]string{"-fig", "grid"}); err == nil || !strings.Contains(err.Error(), "unknown figure") {
		t.Errorf("-fig grid: %v, want unknown figure", err)
	}
	if err := run([]string{"-table", "7"}); err == nil {
		t.Error("unknown table accepted")
	}
	if err := run([]string{}); err == nil {
		t.Error("no target accepted")
	}
}

func TestRunTinyFigure(t *testing.T) {
	// The command line end to end: two plaintext figures, claims included.
	if err := run([]string{"-fig", "4", "-homes", "10", "-sample", "120"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-fig", "6a", "-homes", "10", "-sample", "120"}); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryClaims runs every artefact at tiny scale — a full 720-window
// day for the plaintext figures, one midday window at 256/512/1024-bit keys
// for the crypto ones — and requires its claim to hold, then feeds the claim
// a hand-made table that breaks it, which it must reject.
func TestRegistryClaims(t *testing.T) {
	plain := options{homes: 10, seed: 20200425}
	crypto := options{homes: 6, windows: 1, keyBits: 256, seed: 20200425}
	bad := func(mismatches float64) *table {
		return &table{cols: cryptoCols, rows: [][]float64{{256, 6, 1, 10, 10, 0.5, 0}, {512, 6, 1, 20, 20, 0.6, mismatches}}}
	}
	violations := map[string]*table{
		"4":  {cols: []string{"window", "buyers", "sellers"}, rows: [][]float64{{0, 3, 1}, {1, 3, 2}, {2, 3, 0}}},
		"5a": bad(1),
		"5b": bad(1),
		"5c": bad(2),
		"6a": {cols: []string{"window", "price", "p_hat"}, rows: [][]float64{{0, 120, 0}, {1, 100, 100}, {2, 111, 111}}},
		"6b": {cols: []string{"window", "k20_pem", "k20_no_pem", "k40_pem", "k40_no_pem"}, rows: [][]float64{{0, 3, 2, 4, 3}, {1, 5, 4, 2, 3}}},
		"6c": {cols: []string{"homes", "window", "pem", "no_pem"}, rows: [][]float64{{100, 0, 5, 4}, {100, 1, 1, 3}}},
		"6d": {cols: []string{"homes", "window", "pem", "no_pem"}, rows: [][]float64{{200, 0, 2, 2}, {200, 1, 1, 1}}},
		"t1": {cols: cryptoCols, rows: [][]float64{{256, 6, 1, 10, 10, 0.5, 0}, {512, 6, 1, 20, 20, 0.5, 0}}},
	}
	if len(violations) != len(registry) {
		t.Fatalf("%d violating tables for %d artefacts", len(violations), len(registry))
	}
	for _, a := range registry {
		t.Run(a.name, func(t *testing.T) {
			o := plain
			if a.name[0] == '5' || a.name == "t1" {
				o = crypto
			}
			tbl, err := a.run(o)
			if err != nil {
				t.Fatal(err)
			}
			if note, err := a.claim(tbl); err != nil {
				t.Errorf("claim rejects the reproduction: %v", err)
			} else {
				t.Log(note)
			}
			if _, err := a.claim(violations[a.name]); err == nil {
				t.Error("claim accepts a violating table")
			}
		})
	}
}
