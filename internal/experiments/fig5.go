package experiments

import (
	"deflation/internal/apps/jvm"
	"deflation/internal/apps/kcompile"
	"deflation/internal/apps/memcache"
	"deflation/internal/cascade"
	"deflation/internal/restypes"
	"deflation/internal/vm"
)

// fig5Config is one series of a Figure 5 panel: the cascade levels that
// reclaim, and whether the application runs its deflation policy.
type fig5Config struct {
	name   string
	aware  bool
	levels cascade.Levels
}

// blackBox compares the three reclamation configurations on an unmodified
// application (Figs. 5a and 5b).
var blackBox = []fig5Config{
	{"Hypervisor-only", false, cascade.HypervisorOnly()},
	{"OS-only", false, cascade.OSOnly()},
	{"Hypervisor+OS", false, cascade.VMLevel()},
}

// appAware compares the unmodified application under VM-level deflation
// with the deflation-aware one under the full cascade (Figs. 5c and 5d).
var appAware = []fig5Config{
	{"Unmodified", false, cascade.VMLevel()},
	{"App-Deflation", true, cascade.AllLevels()},
}

// fig5Panel declares one panel of Figure 5. Every (configuration,
// deflation) point deflates a fresh standard VM by x% of the dimensions in
// frac and measures the application afterwards.
type fig5Panel struct {
	label, title, xlabel string
	maxPct               float64
	frac                 restypes.Vector
	configs              []fig5Config
	// app builds the workload and the measurement read after deflation.
	app func(aware bool) (vm.Application, func(*vm.VM) float64, error)
}

func (p fig5Panel) run(o Options) (Result, error) {
	xs := pcts(0, p.maxPct, 10)
	var rows []gridRow
	for _, c := range p.configs {
		rows = append(rows, gridRow{c.name, func(d float64) (float64, error) {
			app, measure, err := p.app(c.aware)
			if err != nil {
				return 0, err
			}
			v, err := newHostAndVM(app)
			if err != nil {
				return 0, err
			}
			if err := deflateBy(v, c.levels, p.frac.Scale(d/100)); err != nil {
				return 0, err
			}
			return measure(v), nil
		}})
	}
	ss, err := grid(o, p.label, xs, rows)
	if err != nil {
		return nil, err
	}
	return curves{{p.title, p.xlabel, xs, ss}}, nil
}

// fig5a reproduces Figure 5a: memcached throughput (normalized) under
// memory-only deflation, comparing hypervisor-only, OS-only, and
// hypervisor+OS reclamation on the unmodified application.
var fig5a = fig5Panel{
	label: "fig5a", title: "Figure 5a: memcached memory deflation (no app support)",
	xlabel: "mem-defl%", maxPct: 50, frac: restypes.Vector{MemoryMB: 1}, configs: blackBox,
	app: func(aware bool) (vm.Application, func(*vm.VM) float64, error) {
		app, err := memcacheAppFig5a(aware)
		return app, (*vm.VM).Throughput, err
	},
}

// fig5b reproduces Figure 5b: kernel-compile throughput under CPU-only
// deflation across the same three reclamation configurations.
var fig5b = fig5Panel{
	label: "fig5b", title: "Figure 5b: kernel-compile CPU deflation (no app support)",
	xlabel: "cpu-defl%", maxPct: 80, frac: restypes.Vector{CPU: 1}, configs: blackBox,
	app: func(bool) (vm.Application, func(*vm.VM) float64, error) {
		return kcompile.NewApp(kcompile.AppConfig{}), (*vm.VM).Throughput, nil
	},
}

// fig5c reproduces Figure 5c: memcached kGETS/s under memory deflation on
// a 14 GB cache filling the VM, unmodified versus deflation-aware (LRU
// resize policy).
var fig5c = fig5Panel{
	label: "fig5c", title: "Figure 5c: memcached kGETS/s, unmodified vs app deflation",
	xlabel: "mem-defl%", maxPct: 60, frac: restypes.Vector{MemoryMB: 1}, configs: appAware,
	app: func(aware bool) (vm.Application, func(*vm.VM) float64, error) {
		app, err := memcache.NewApp(memcache.AppConfig{
			CacheMB: 14000, DatasetMB: 15500, DeflationAware: aware, Cores: 4,
		})
		return app, func(v *vm.VM) float64 { return app.KGETS(v.Env()) }, err
	},
}

// fig5d reproduces Figure 5d: SpecJBB response time (µs) when CPU and
// memory are deflated together, unmodified versus the deflation-aware JVM
// (GC + heap resize policy).
var fig5d = fig5Panel{
	label: "fig5d", title: "Figure 5d: SpecJBB response time (µs), unmodified vs app deflation",
	xlabel: "defl%", maxPct: 60, frac: restypes.Vector{CPU: 1, MemoryMB: 1}, configs: appAware,
	app: func(aware bool) (vm.Application, func(*vm.VM) float64, error) {
		app, err := jvm.NewApp(jvm.AppConfig{
			MaxHeapMB: 12000, LiveMB: 3000, DeflationAware: aware, Cores: 4,
		})
		return app, func(v *vm.VM) float64 { return app.ResponseTimeUS(v.Env()) }, err
	},
}
