package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV serializes the trace as CSV with one row per (home, window):
//
//	home_id,solar_cap_kw,base_load_kw,k,epsilon,battery_cap_kwh,window,gen_kwh,load_kwh,battery_kwh
//
// This matches the flat layout of the UMass Smart* per-home exports, so
// downstream users can swap in the real dataset.
func (t *Trace) WriteCSV(w io.Writer) error {
	t.Materialize()
	cw := csv.NewWriter(w)
	header := []string{"home_id", "solar_cap_kw", "base_load_kw", "k", "epsilon", "battery_cap_kwh", "window", "gen_kwh", "load_kwh", "battery_kwh"}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for h, home := range t.Homes {
		for win := 0; win < t.Windows; win++ {
			rec := []string{
				home.ID,
				f(home.SolarCapKW),
				f(home.BaseLoadKW),
				f(home.K),
				f(home.Epsilon),
				f(home.BatteryCapKWh),
				strconv.Itoa(win),
				f(t.Gen[h][win]),
				f(t.Load[h][win]),
				f(t.Battery[h][win]),
			}
			if err := cw.Write(rec); err != nil {
				return fmt.Errorf("dataset: write row: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a trace written by WriteCSV (or an equivalently shaped
// real-data export). Every (home, window) cell from window 0 to the largest
// window in the file must be given exactly once, and every value must be a
// finite number; an error names the offending line, or the missing cell.
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: read csv: %w", err)
	}
	if len(records) < 2 {
		return nil, fmt.Errorf("dataset: csv has no data rows")
	}
	if len(records[0]) != 10 {
		return nil, fmt.Errorf("dataset: csv has %d columns, want 10", len(records[0]))
	}

	tr := &Trace{StartHour: 7}
	homeIdx := make(map[string]int)
	type cell struct{ home, window int }
	type row struct {
		cell
		gen, load, batt float64
	}
	var rows []row
	lineOf := make(map[cell]int)
	maxWindow := -1

	for i, rec := range records[1:] {
		line := i + 2
		parse := func(col int) (float64, error) {
			v, err := strconv.ParseFloat(rec[col], 64)
			if err == nil && !finite(v) {
				err = fmt.Errorf("%v is not finite", v)
			}
			if err != nil {
				return 0, fmt.Errorf("dataset: line %d col %d: %w", line, col+1, err)
			}
			return v, nil
		}
		id := rec[0]
		h, ok := homeIdx[id]
		if !ok {
			var params [5]float64
			for j := range params {
				if params[j], err = parse(1 + j); err != nil {
					return nil, err
				}
			}
			h = len(tr.Homes)
			homeIdx[id] = h
			tr.Homes = append(tr.Homes, Home{
				ID: id, SolarCapKW: params[0], BaseLoadKW: params[1], K: params[2], Epsilon: params[3], BatteryCapKWh: params[4],
			})
		}
		win, err := strconv.Atoi(rec[6])
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: bad window: %w", line, err)
		}
		if win < 0 {
			return nil, fmt.Errorf("dataset: line %d: window %d out of range", line, win)
		}
		c := cell{h, win}
		if prev, dup := lineOf[c]; dup {
			return nil, fmt.Errorf("dataset: line %d: home %s window %d already given on line %d", line, id, win, prev)
		}
		lineOf[c] = line
		maxWindow = max(maxWindow, win)
		rw := row{cell: c}
		for j, v := range []*float64{&rw.gen, &rw.load, &rw.batt} {
			if *v, err = parse(7 + j); err != nil {
				return nil, err
			}
		}
		rows = append(rows, rw)
	}

	tr.Windows = maxWindow + 1
	for h, home := range tr.Homes {
		for w := 0; w < tr.Windows; w++ {
			if _, ok := lineOf[cell{h, w}]; !ok {
				return nil, fmt.Errorf("dataset: csv has no row for home %s window %d", home.ID, w)
			}
		}
	}
	tr.Gen = make([][]float64, len(tr.Homes))
	tr.Load = make([][]float64, len(tr.Homes))
	tr.Battery = make([][]float64, len(tr.Homes))
	for h := range tr.Homes {
		tr.Gen[h] = make([]float64, tr.Windows)
		tr.Load[h] = make([]float64, tr.Windows)
		tr.Battery[h] = make([]float64, tr.Windows)
	}
	for _, rw := range rows {
		tr.Gen[rw.home][rw.window] = rw.gen
		tr.Load[rw.home][rw.window] = rw.load
		tr.Battery[rw.home][rw.window] = rw.batt
	}
	return tr, nil
}
