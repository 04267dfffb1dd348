// Package experiments reproduces the paper's evaluation (§6) as a registry
// of figures. Each Figure reconstructs one experiment's setup from the
// repository's substrates, runs it deterministically under the Options it
// is given, and returns a text table. cmd/deflbench, the determinism,
// memoization and golden tests and the root benchmarks all iterate
// Figures().
package experiments

import (
	"fmt"
	"strings"

	"deflation/internal/apps/memcache"
	"deflation/internal/cascade"
	"deflation/internal/guestos"
	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
	"deflation/internal/stats"
	"deflation/internal/vm"
)

// stdVMSize is the paper's standard VM: 4 vCPUs, 16 GB (§6), with generous
// I/O so CPU and memory dominate.
func stdVMSize() restypes.Vector { return restypes.V(4, 16384, 400, 1250) }

// newHostAndVM boots a single standard VM running app on a fresh host,
// marked warm (long-running, memory host-resident).
func newHostAndVM(app vm.Application) (*vm.VM, error) {
	h, err := hypervisor.NewHost(hypervisor.Config{
		Name:     "exp-host",
		Capacity: restypes.V(16, 65536, 1600, 5000),
	})
	if err != nil {
		return nil, err
	}
	dom, err := h.CreateDomain("exp-vm", stdVMSize(), guestos.Config{})
	if err != nil {
		return nil, err
	}
	dom.MarkWarm()
	return vm.New(dom, app, vm.Config{})
}

// deflateBy reclaims the given per-dimension fractions of the VM's nominal
// size through the configured cascade levels.
func deflateBy(v *vm.VM, levels cascade.Levels, frac restypes.Vector) error {
	target := v.Size().Mul(frac)
	return cascade.New(levels).Deflate(v, target, &cascade.Report{})
}

// pcts returns lo, lo+step, ... up to hi: a figure's x-axis in percent.
func pcts(lo, hi, step float64) []float64 {
	var xs []float64
	for d := lo; d <= hi; d += step {
		xs = append(xs, d)
	}
	return xs
}

// series is a named sequence of y-values over a shared x-axis.
type series struct {
	Name   string
	Values []float64
}

// panel is one titled table of series over a shared x-axis.
type panel struct {
	title, xlabel string
	x             []float64
	series        []series
}

// curves is a figure drawn as one or more panels, rendered in order.
type curves []panel

// Table renders every panel.
func (c curves) Table() string {
	var b strings.Builder
	for _, p := range c {
		b.WriteString(renderTable(p.title, p.xlabel, p.x, p.series))
	}
	return b.String()
}

// timelines is a figure drawn as time series, rendered in order.
type timelines []*stats.TimeSeries

// Table renders every time series.
func (t timelines) Table() string {
	var b strings.Builder
	for _, ts := range t {
		b.WriteString(ts.Table())
	}
	return b.String()
}

// renderTable renders x-labels and series as an aligned text table.
func renderTable(title, xlabel string, xs []float64, ss []series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", title)
	fmt.Fprintf(&b, "%-14s", xlabel)
	for _, s := range ss {
		fmt.Fprintf(&b, "%16s", s.Name)
	}
	b.WriteByte('\n')
	for i, x := range xs {
		fmt.Fprintf(&b, "%-14.3g", x)
		for _, s := range ss {
			if i < len(s.Values) {
				fmt.Fprintf(&b, "%16.3f", s.Values[i])
			} else {
				fmt.Fprintf(&b, "%16s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// memcacheAppFig5a builds the Fig. 5a memcached configuration: an 8 GB
// cache on the 16 GB VM, moderate pressure.
func memcacheAppFig5a(aware bool) (*memcache.App, error) {
	return memcache.NewApp(memcache.AppConfig{
		CacheMB: 8000, DatasetMB: 9000, DeflationAware: aware, Cores: 4,
	})
}
