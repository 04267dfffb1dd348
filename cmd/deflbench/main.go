// Command deflbench regenerates the paper's tables and figures from the
// repository's substrates and prints them as text tables.
//
// Usage:
//
//	deflbench -fig all              # every figure (slow: full 100-node sims)
//	deflbench -fig 1                # Figure 1
//	deflbench -fig 6 -quick         # Figure 6 panels, reduced sweep sizes
//	deflbench -fig fig8 -parallel 8 # Figure 8 panels, 8 sweep workers
//	deflbench -fig 8c -parallel 1   # serial path, same output
//
// -fig takes a figure name, a group (5, 7 or 8: that figure's panels), or
// "all"; a "fig" prefix is accepted everywhere (fig8c ≡ 8c). The names
// come from the experiments registry: table1, table2, 1, 5a–5d, 6, 7a,
// 7b, 8a–8d, the fleet-size scale sweep 8c-xl, and the revenue, chaos,
// migration, failover, slo and mixed sweeps. "all" runs every figure but
// 8c-xl, whose full form takes 1M arrivals on 10k nodes (-quick trims it
// to 100/1k nodes).
//
// Every figure fans its independent cells out across -parallel workers
// (default GOMAXPROCS) with a deterministic merge, and identical
// simulation cells run once across figures (the chaos zero-fault row is
// exactly a Fig. 8c cell), so output is bit-for-bit identical at any
// parallelism.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"deflation/internal/experiments"
	"deflation/internal/sweep"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "deflbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("deflbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "figure to regenerate: a name, a group (5, 7, 8), or all")
	quick := fs.Bool("quick", false, "smaller sweeps for the cluster simulations")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "sweep workers; 1 runs every cell serially, N>1 fans cells out over N goroutines")
	progress := fs.Bool("progress", true, "live sweep progress on stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	selected, err := pick(*fig)
	if err != nil {
		return err
	}
	opts := experiments.Options{Quick: *quick, Workers: *parallel, Cache: sweep.NewCache()}
	if *progress {
		opts.Progress = func(p sweep.Progress) { printProgress(stderr, p) }
	}
	for _, f := range selected {
		start := time.Now()
		res, err := f.Run(opts)
		if err != nil {
			return fmt.Errorf("figure %s: %w", f.Name, err)
		}
		fmt.Fprintln(stdout, res.Table())
		fmt.Fprintf(stdout, "(figure %s regenerated in %v)\n\n", f.Name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// pick resolves -fig to registered figures, in registry order.
func pick(fig string) ([]experiments.Figure, error) {
	name := strings.TrimPrefix(strings.ToLower(fig), "fig")
	var selected []experiments.Figure
	var names []string
	for _, f := range experiments.Figures() {
		names = append(names, f.Name)
		if name == f.Name || f.Group != "" && name == f.Group || name == "all" && f.InAll {
			selected = append(selected, f)
		}
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("unknown figure %q (want all, 5, 7, 8 or one of %s)", fig, strings.Join(names, ", "))
	}
	return selected, nil
}

// printProgress renders one sweep's live state on w, overwriting the line
// until the sweep completes.
func printProgress(w io.Writer, p sweep.Progress) {
	var b strings.Builder
	fmt.Fprintf(&b, "\r%-12s %3d/%3d cells", p.Label, p.Done, p.Total)
	if p.CacheHits > 0 {
		fmt.Fprintf(&b, " (%d cached)", p.CacheHits)
	}
	if p.Errors > 0 {
		fmt.Fprintf(&b, " (%d failed)", p.Errors)
	}
	if p.ETA > 0 {
		fmt.Fprintf(&b, "  ETA %-8v", p.ETA.Round(time.Second))
	}
	if p.Done == p.Total {
		fmt.Fprintf(&b, "  done in %v", p.Elapsed.Round(time.Millisecond))
		b.WriteByte('\n')
	}
	fmt.Fprint(w, b.String())
}
