// Command tracegen generates and inspects the synthetic wide-area bandwidth
// traces that stand in for the paper's two-day Internet measurement study.
//
// Examples:
//
//	tracegen -stats              # summary of every trace in the study pool
//	tracegen -fig2 -index 5      # Figure 2-style variability plot of one trace
//	tracegen -csv -index 5       # dump one trace as CSV (time_s,bandwidth_KBps)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"wadc/internal/experiment"
	"wadc/internal/metrics"
	"wadc/internal/trace"
)

func main() {
	var (
		seed  = flag.Int64("seed", 1, "pool seed")
		index = flag.Int("index", 0, "trace index within the pool")
		stats = flag.Bool("stats", false, "print summary statistics for every trace")
		fig2  = flag.Bool("fig2", false, "render the Figure 2 variability plot for one trace")
		csv   = flag.Bool("csv", false, "dump one trace as CSV")
		load  = flag.String("load", "", "load a trace from a CSV file and print its statistics")
	)
	flag.Parse()

	pool := trace.NewStudyPool(*seed)
	if *index < 0 || *index >= pool.Size() {
		fmt.Fprintf(os.Stderr, "tracegen: -index must be in [0, %d)\n", pool.Size())
		os.Exit(2)
	}
	switch {
	case *load != "":
		f, err := os.Open(*load)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		tr, err := trace.ReadCSV(f, *load)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			os.Exit(1)
		}
		st := trace.Analyze(tr)
		fmt.Printf("trace %s: %d samples at %v (%.1fh)\n", tr.Name(), tr.Len(), tr.Interval(),
			tr.Duration().Seconds()/3600)
		fmt.Printf("mean %.1f KB/s, min %.1f, max %.1f, CoV %.2f, >=10%% change interval %v\n",
			st.Mean.KBps(), st.Min.KBps(), st.Max.KBps(), st.CoV,
			st.SignificantChangeInterval.Round(time.Second))
	case *stats:
		tbl := metrics.NewTable("trace", "mean KB/s", "min", "max", "CoV", ">=10% change interval")
		var intervals []float64
		for i := 0; i < pool.Size(); i++ {
			tr := pool.Trace(i)
			st := trace.Analyze(tr)
			tbl.AddRow(tr.Name(), st.Mean.KBps(), st.Min.KBps(), st.Max.KBps(),
				st.CoV, st.SignificantChangeInterval.Round(time.Second).String())
			intervals = append(intervals, st.SignificantChangeInterval.Seconds())
		}
		fmt.Print(tbl.String())
		fmt.Printf("\npool mean time between >=10%% changes: %.0fs (paper reports ~2 minutes)\n",
			metrics.Mean(intervals))
	case *fig2:
		fmt.Print(experiment.Figure2(*seed, *index).Render())
	case *csv:
		if err := trace.WriteCSV(os.Stdout, pool.Trace(*index)); err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "tracegen: pass one of -stats, -fig2, -csv (see -h)")
		os.Exit(2)
	}
}
