package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"wadc/internal/sim"
)

// WriteCSV serialises a trace as "time_s,bandwidth_KBps" rows (the format
// `tracegen -csv` prints and ReadCSV reads back), preceded by a header row.
func WriteCSV(w io.Writer, tr *Trace) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_s", "bandwidth_KBps"}); err != nil {
		return fmt.Errorf("trace: writing CSV header: %w", err)
	}
	for i, bw := range tr.samples {
		t := sim.Time(i) * tr.interval
		row := []string{
			strconv.FormatFloat(t.Seconds(), 'f', 3, 64),
			strconv.FormatFloat(bw.KBps(), 'f', 4, 64),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: writing CSV row %d: %w", i, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: flushing CSV: %w", err)
	}
	return nil
}

// ReadCSV parses a trace from "time_s,bandwidth_KBps" rows (with or without
// a header). Samples must be equally spaced and in time order; this is the
// entry point for driving the simulator with real measured traces instead of
// the synthetic study.
func ReadCSV(r io.Reader, name string) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	var times []float64
	var bws []Bandwidth
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: reading CSV: %w", err)
		}
		t, err1 := strconv.ParseFloat(rec[0], 64)
		b, err2 := strconv.ParseFloat(rec[1], 64)
		if err1 != nil || err2 != nil {
			if len(times) == 0 {
				continue // header row
			}
			return nil, fmt.Errorf("trace: bad CSV row %q", rec)
		}
		times = append(times, t)
		bws = append(bws, KBps(b))
	}
	if len(bws) == 0 {
		return nil, fmt.Errorf("trace: CSV contained no samples")
	}
	interval := sim.Second
	if len(times) >= 2 {
		interval = sim.FromSeconds(times[1] - times[0])
		if interval <= 0 {
			return nil, fmt.Errorf("trace: non-increasing timestamps")
		}
		for i := 2; i < len(times); i++ {
			got := sim.FromSeconds(times[i] - times[i-1])
			if diff := got - interval; diff > sim.Millisecond || diff < -sim.Millisecond {
				return nil, fmt.Errorf("trace: irregular sample spacing at row %d (%v vs %v)", i, got, interval)
			}
		}
	}
	return New(name, interval, bws), nil
}
