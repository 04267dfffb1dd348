package cluster

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"deflation/internal/apps/curveapp"
	"deflation/internal/apps/jvm"
	"deflation/internal/apps/kcompile"
	"deflation/internal/apps/memcache"
	"deflation/internal/apps/webapp"
	"deflation/internal/perfmodel"
	"deflation/internal/restypes"
	"deflation/internal/substrate"
	"deflation/internal/vm"
)

// Node is a server as seen by the cluster manager: the local deflation
// controller, either in-process (*LocalController) or behind the REST API
// (*RemoteNode). The manager only needs the capacity summary and lifecycle
// operations; all reclamation mechanics stay on the server side.
type Node interface {
	// Name identifies the server.
	Name() string
	// Launch starts a VM, reclaiming resources as needed.
	Launch(spec LaunchSpec) (LaunchReport, error)
	// Release ends a VM's life and reinflates survivors.
	Release(name string) error
	// Has reports whether the named VM currently runs here. The error is
	// non-nil when the node could not be reached — distinctly different
	// from a definitive (false, nil) "not found", so an unreachable server
	// is never mistaken for a missing VM.
	Has(name string) (bool, error)
	// Ping probes liveness cheaply; the manager's health monitor counts
	// consecutive failures to detect crash-stop node failures.
	Ping() error
	// Capacity returns the server's capacity summary, everything placement
	// reads, and whether it is known. Unknown is not empty: the server is no
	// placement candidate until it is known again.
	Capacity() (CapacitySummary, bool)
	// WatchCapacity registers fn to run whenever anything placement reads
	// may have changed, and returns the func that unregisters it; the
	// placement index is built on it. fn must be O(1) and must not call back
	// into the node; a RemoteNode runs it on any goroutine.
	WatchCapacity(fn func()) (unwatch func())

	// The live-migration surface (see migrate.go): Checkpoint captures a
	// VM's transferable state on the source, RestoreVM materializes it on
	// the destination, ReserveStream/ReleaseStream hold migration link
	// bandwidth (throttling co-located low-priority VMs when the NIC is
	// saturated), and DeflateFully squeezes a VM to its minimum footprint
	// before a deflate-then-migrate move.
	Checkpoint(name string) (VMCheckpoint, error)
	RestoreVM(cp VMCheckpoint) error
	ReserveStream(stream string, rateMBps float64) (float64, error)
	ReleaseStream(stream string) error
	DeflateFully(name string) (time.Duration, error)
}

// watchList is a node's WatchCapacity subscribers.
type watchList []*func()

// add registers fn and returns the func that unregisters it.
func (l *watchList) add(fn func()) (remove func()) {
	w := &fn // a pointer gives the registration an identity funcs lack
	*l = append(*l, w)
	return func() {
		if i := slices.Index(*l, w); i >= 0 {
			*l = slices.Delete(*l, i, i+1)
		}
	}
}

func (l watchList) notify() {
	for _, w := range l {
		(*w)()
	}
}

// capability finds the first node along n's wrapper chain — n, then each
// node an `Unwrap() Node` method returns — that implements T. A wrapper
// that adds behaviour (fencedNode) exposes the node it wraps this way, so no
// capability probe has to know the wrapper types.
func capability[T any](n Node) (T, bool) {
	for {
		if c, ok := n.(T); ok {
			return c, true
		}
		w, ok := n.(interface{ Unwrap() Node })
		if !ok {
			var none T
			return none, false
		}
		n = w.Unwrap()
	}
}

// substrateCompatible reports whether a VM of the given substrate kind can
// run on a node of kind ns. Unknown on either side means "assume
// compatible": the node's own Spawn/RestoreInstance is the authoritative
// check, and launch and migration paths handle its refusal cleanly.
func substrateCompatible(ns, kind string) bool {
	if kind == "" || ns == "" {
		return true
	}
	return substrate.Kind(ns).Normalize() == substrate.Kind(kind).Normalize()
}

// AppFactory builds an application for a VM of the given nominal size.
type AppFactory func(size restypes.Vector) vm.Application

var (
	appKindsMu sync.RWMutex
	appKinds   = map[string]AppFactory{}
)

// RegisterAppKind installs a named application factory, used when a launch
// spec arrives over the REST API (functions do not serialize). Registering
// an existing name replaces it.
func RegisterAppKind(name string, f AppFactory) {
	if name == "" || f == nil {
		panic("cluster: RegisterAppKind needs a name and a factory")
	}
	appKindsMu.Lock()
	defer appKindsMu.Unlock()
	appKinds[name] = f
}

// AppKind resolves a registered factory.
func AppKind(name string) (AppFactory, error) {
	appKindsMu.RLock()
	defer appKindsMu.RUnlock()
	f, ok := appKinds[name]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown app kind %q (have %v)", name, AppKinds())
	}
	return f, nil
}

// AppKinds lists registered kind names, sorted.
func AppKinds() []string {
	appKindsMu.RLock()
	defer appKindsMu.RUnlock()
	out := make([]string, 0, len(appKinds))
	for k := range appKinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func init() {
	// Built-in application kinds covering the paper's workload table.
	RegisterAppKind("inelastic", func(size restypes.Vector) vm.Application {
		return curveapp.New(curveapp.Config{Size: size, Curve: perfmodel.CurveSpecJBB})
	})
	RegisterAppKind("elastic", func(size restypes.Vector) vm.Application {
		return curveapp.New(curveapp.Config{Size: size, Curve: perfmodel.CurveSpecJBB, Elastic: true})
	})
	RegisterAppKind("spark-kmeans", func(size restypes.Vector) vm.Application {
		return curveapp.New(curveapp.Config{Size: size, Curve: perfmodel.CurveSparkKmeans, Elastic: true})
	})
	RegisterAppKind("kcompile", func(size restypes.Vector) vm.Application {
		return kcompile.NewApp(kcompile.AppConfig{Cores: size.CPU})
	})
	RegisterAppKind("memcached", func(size restypes.Vector) vm.Application {
		return mustMemcache(size, false)
	})
	RegisterAppKind("memcached-aware", func(size restypes.Vector) vm.Application {
		return mustMemcache(size, true)
	})
	RegisterAppKind("specjbb", func(size restypes.Vector) vm.Application {
		return mustJVM(size, false)
	})
	RegisterAppKind("specjbb-aware", func(size restypes.Vector) vm.Application {
		return mustJVM(size, true)
	})
	RegisterAppKind("webserver", func(size restypes.Vector) vm.Application {
		return webapp.NewApp(webapp.Config{Cores: size.CPU})
	})
	RegisterAppKind("webserver-aware", func(size restypes.Vector) vm.Application {
		return webapp.NewApp(webapp.Config{Cores: size.CPU, DeflationAware: true})
	})
}

func mustMemcache(size restypes.Vector, aware bool) vm.Application {
	cacheMB := size.MemoryMB * 0.5
	app, err := memcache.NewApp(memcache.AppConfig{
		CacheMB: cacheMB, DatasetMB: cacheMB * 1.2,
		Cores: size.CPU, DeflationAware: aware,
		Scale: 2048, // keep real backing stores small for many-VM clusters
	})
	if err != nil {
		// Tiny VMs cannot host a meaningful store; fall back to a curve.
		return curveapp.New(curveapp.Config{Size: size, Curve: perfmodel.CurveMemcached, Elastic: aware})
	}
	return app
}

func mustJVM(size restypes.Vector, aware bool) vm.Application {
	app, err := jvm.NewApp(jvm.AppConfig{
		MaxHeapMB: size.MemoryMB * 0.6, LiveMB: size.MemoryMB * 0.2,
		Cores: size.CPU, DeflationAware: aware,
	})
	if err != nil {
		return curveapp.New(curveapp.Config{Size: size, Curve: perfmodel.CurveSpecJBB, Elastic: aware})
	}
	return app
}

// ResolveApp returns the factory for a spec: the local NewApp function if
// set, otherwise the registered AppKind.
func (s LaunchSpec) ResolveApp() (AppFactory, error) {
	if s.NewApp != nil {
		return s.NewApp, nil
	}
	if s.AppKind == "" {
		return nil, fmt.Errorf("cluster: launch %q needs NewApp or AppKind", s.Name)
	}
	return AppKind(s.AppKind)
}
