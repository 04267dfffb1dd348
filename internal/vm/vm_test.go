package vm

import (
	"testing"

	"deflation/internal/apps/apptest"
	"deflation/internal/guestos"
	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
)

func newDomain(t *testing.T) *hypervisor.Domain {
	t.Helper()
	h, err := hypervisor.NewHost(hypervisor.Config{Name: "h", Capacity: restypes.V(16, 65536, 400, 400)})
	if err != nil {
		t.Fatal(err)
	}
	d, err := h.CreateDomain("vm0", restypes.V(4, 16384, 100, 100), guestos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	d := newDomain(t)
	app := apptest.New("a")
	if _, err := New(nil, app, Config{}); err == nil {
		t.Error("nil domain accepted")
	}
	if _, err := New(d, nil, Config{}); err == nil {
		t.Error("nil app accepted")
	}
	if _, err := New(d, app, Config{MinSize: restypes.V(8, 1, 1, 1)}); err == nil {
		t.Error("min size larger than VM accepted")
	}
}

func TestNewSyncsFootprint(t *testing.T) {
	d := newDomain(t)
	app := apptest.New("a")
	app.RSSMB, app.CacheMB = 4000, 1000
	if _, err := New(d, app, Config{}); err != nil {
		t.Fatal(err)
	}
	if d.Guest().AppRSSMB() != 4000 || d.Guest().PageCacheMB() != 1000 {
		t.Errorf("guest footprint = %g/%g, want 4000/1000",
			d.Guest().AppRSSMB(), d.Guest().PageCacheMB())
	}
}

func TestDeflatable(t *testing.T) {
	d := newDomain(t)
	min := restypes.V(1, 4096, 10, 10)
	v, err := New(d, apptest.New("a"), Config{MinSize: min})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := v.Deflatable(), restypes.V(3, 12288, 90, 90); got != want {
		t.Errorf("Deflatable = %v, want %v", got, want)
	}
}

func TestHighPriorityNotDeflatable(t *testing.T) {
	d := newDomain(t)
	v, err := New(d, apptest.New("a"), Config{Priority: HighPriority})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Deflatable().IsZero() {
		t.Errorf("high-priority deflatable = %v, want zero", v.Deflatable())
	}
	if v.Priority().String() != "high" {
		t.Errorf("priority string = %q", v.Priority().String())
	}
	if LowPriority.String() != "low" {
		t.Errorf("low priority string = %q", LowPriority.String())
	}
}

func TestPreempt(t *testing.T) {
	d := newDomain(t)
	v, err := New(d, apptest.New("a"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Preempted() {
		t.Error("fresh VM reports preempted")
	}
	v.Preempt()
	if !v.Preempted() {
		t.Error("preempted VM reports alive")
	}
}

func TestAccessors(t *testing.T) {
	d := newDomain(t)
	min := restypes.V(1, 4096, 10, 10)
	app := apptest.New("a")
	v, err := New(d, app, Config{MinSize: min})
	if err != nil {
		t.Fatal(err)
	}
	if v.Name() != "vm0" || v.Domain() != d || v.App() != Application(app) {
		t.Error("identity accessors wrong")
	}
	if v.Size() != restypes.V(4, 16384, 100, 100) || v.Allocation() != v.Size() {
		t.Error("size/allocation wrong")
	}
	if v.MinSize() != min {
		t.Error("min size wrong")
	}
	if env := v.Env(); env.VCPUs != 4 || env.GuestMemMB != 16384 {
		t.Errorf("env = %+v", env)
	}
}

// observingApp records environments pushed via ObserveEnv.
type observingApp struct {
	*apptest.App
	seen []hypervisor.Env
}

func (o *observingApp) ObserveEnv(env hypervisor.Env) { o.seen = append(o.seen, env) }

func TestObserveEnv(t *testing.T) {
	d := newDomain(t)
	obs := &observingApp{App: apptest.New("a")}
	v, err := New(d, obs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	v.ObserveEnv()
	if len(obs.seen) != 1 || obs.seen[0].VCPUs != 4 {
		t.Errorf("observed = %+v", obs.seen)
	}
	// Non-observer apps are a no-op.
	v2, err := New(newDomain2(t), apptest.New("b"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	v2.ObserveEnv()
}

func newDomain2(t *testing.T) *hypervisor.Domain {
	t.Helper()
	h, err := hypervisor.NewHost(hypervisor.Config{Name: "h2", Capacity: restypes.V(16, 65536, 400, 400)})
	if err != nil {
		t.Fatal(err)
	}
	d, err := h.CreateDomain("vm1", restypes.V(4, 16384, 100, 100), guestos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestThroughputDelegates(t *testing.T) {
	d := newDomain(t)
	app := apptest.New("a")
	app.ThroughputFn = func(hypervisor.Env) float64 { return 0.42 }
	v, err := New(d, app, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Throughput(); got != 0.42 {
		t.Errorf("Throughput = %g, want 0.42", got)
	}
}

func TestSnapshotRestoreMigratesDeflatedState(t *testing.T) {
	src, err := hypervisor.NewHost(hypervisor.Config{Name: "src", Capacity: restypes.V(16, 65536, 400, 400)})
	if err != nil {
		t.Fatal(err)
	}
	d, err := src.CreateDomain("vm0", restypes.V(4, 16384, 100, 100), guestos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	app := apptest.New("a")
	app.RSSMB, app.CacheMB = 4000, 1000
	v, err := New(d, app, Config{Priority: LowPriority, MinSize: restypes.V(1, 4096, 10, 10)})
	if err != nil {
		t.Fatal(err)
	}
	d.MarkWarm()
	// Deflate to half allocation: the destination must admit by this
	// deflated footprint, not the nominal size.
	if _, err := d.SetAllocation(restypes.V(2, 8192, 50, 50)); err != nil {
		t.Fatal(err)
	}

	snap := v.Snapshot()

	// A destination too small for the nominal size but big enough for the
	// deflated allocation accepts the restore — the deflate-then-migrate
	// placement advantage.
	tight, err := hypervisor.NewHost(hypervisor.Config{Name: "tight", Capacity: restypes.V(3, 12000, 60, 60)})
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreOn(tight, snap, app)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "vm0" || r.Priority() != LowPriority || r.MinSize() != v.MinSize() {
		t.Errorf("restored identity diverges: %s/%v/%v", r.Name(), r.Priority(), r.MinSize())
	}
	if r.Allocation() != v.Allocation() {
		t.Errorf("restored alloc %v != source %v", r.Allocation(), v.Allocation())
	}
	if r.Size() != v.Size() {
		t.Errorf("restored nominal size %v != source %v", r.Size(), v.Size())
	}
	if got, want := r.Env().EverTouchedMB, v.Env().EverTouchedMB; got != want {
		t.Errorf("restored ever-touched %g != source %g", got, want)
	}
	if r.Env().OOMKilled {
		t.Error("restore OOM-killed the guest")
	}

	// Duplicate restore on the same host must fail (no double-placement).
	if _, err := RestoreOn(tight, snap, app); err == nil {
		t.Error("duplicate restore accepted")
	}
}
