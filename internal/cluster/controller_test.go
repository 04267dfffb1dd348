package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"deflation/internal/apps/apptest"
	"deflation/internal/cascade"
	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
	"deflation/internal/simcg"
	"deflation/internal/substrate"
	"deflation/internal/vm"
)

// capOf reads n's capacity summary, known or not.
func capOf(n Node) CapacitySummary {
	sum, _ := n.Capacity()
	return sum
}

func newServer(t *testing.T, mode Mode) *LocalController {
	t.Helper()
	h, err := hypervisor.NewHost(hypervisor.Config{Name: "s0", Capacity: restypes.V(16, 65536, 400, 400)})
	if err != nil {
		t.Fatal(err)
	}
	return NewLocalController(h, cascade.AllLevels(), mode)
}

func spec(name string, prio vm.Priority, minFrac float64) LaunchSpec {
	size := restypes.V(4, 16384, 100, 100)
	return LaunchSpec{
		Name: name, Size: size, MinSize: size.Scale(minFrac), Priority: prio,
		NewApp: func(s restypes.Vector) vm.Application {
			a := apptest.NewElastic(name, s.MemoryMB*0.5, s.MemoryMB*0.1)
			return a
		},
	}
}

func TestLaunchBasics(t *testing.T) {
	c := newServer(t, ModeDeflation)
	v, rep, err := c.LaunchVM(spec("a", vm.LowPriority, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	if v.Name() != "a" || rep.Deflations != 0 || len(rep.Preempted) != 0 {
		t.Errorf("launch report: %+v", rep)
	}
	if _, _, err := c.LaunchVM(spec("a", vm.LowPriority, 0.25)); !errors.Is(err, ErrVMExists) {
		t.Errorf("duplicate launch err = %v", err)
	}
	if _, _, err := c.LaunchVM(LaunchSpec{Name: "b", Size: restypes.V(1, 1, 1, 1)}); err == nil {
		t.Error("launch without NewApp accepted")
	}
	if _, err := c.VM("a"); err != nil {
		t.Errorf("VM lookup: %v", err)
	}
	if _, err := c.VM("nope"); !errors.Is(err, ErrVMNotFound) {
		t.Errorf("missing VM err = %v", err)
	}
	if got := len(c.VMs()); got != 1 {
		t.Errorf("VMs = %d", got)
	}
}

func TestLaunchDeflatesResidents(t *testing.T) {
	c := newServer(t, ModeDeflation)
	// Fill: 4 VMs × (4, 16384, 100, 100) consumes the host entirely.
	for _, n := range []string{"a", "b", "c", "d"} {
		if _, _, err := c.LaunchVM(spec(n, vm.LowPriority, 0.25)); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Free().IsZero() {
		t.Fatalf("host not full: %v", c.Free())
	}
	// Fifth VM fits only by deflating the other four.
	_, rep, err := c.LaunchVM(spec("e", vm.LowPriority, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deflations != 4 {
		t.Errorf("%d deflations, want all 4 residents", rep.Deflations)
	}
	if len(rep.Preempted) != 0 {
		t.Errorf("preempted %v, want none", rep.Preempted)
	}
	// Proportional: each resident gave up a quarter of the demand.
	for _, n := range []string{"a", "b", "c", "d"} {
		v, _ := c.VM(n)
		want := restypes.V(3, 12288, 75, 75)
		if v.Allocation() != want {
			t.Errorf("VM %s allocation = %v, want %v", n, v.Allocation(), want)
		}
	}
}

func TestHighPriorityNeverDeflated(t *testing.T) {
	c := newServer(t, ModeDeflation)
	if _, _, err := c.LaunchVM(spec("hi", vm.HighPriority, 0)); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"a", "b", "c"} {
		if _, _, err := c.LaunchVM(spec(n, vm.LowPriority, 0.25)); err != nil {
			t.Fatal(err)
		}
	}
	_, rep, err := c.LaunchVM(spec("d", vm.LowPriority, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deflations != 3 {
		t.Errorf("%d deflations, want the 3 low-priority residents", rep.Deflations)
	}
	hi, _ := c.VM("hi")
	if hi.Allocation() != hi.Size() {
		t.Errorf("high-priority allocation %v shrank", hi.Allocation())
	}
}

func TestLowPriorityCannotPreempt(t *testing.T) {
	c := newServer(t, ModeDeflation)
	// Fill with lows at min 0.9 (almost nothing deflatable).
	for _, n := range []string{"a", "b", "c", "d"} {
		if _, _, err := c.LaunchVM(spec(n, vm.LowPriority, 0.9)); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := c.LaunchVM(spec("e", vm.LowPriority, 0.9))
	if !errors.Is(err, ErrNoCapacity) {
		t.Errorf("low-priority launch err = %v, want ErrNoCapacity", err)
	}
	if capOf(c).Preemptions != 0 {
		t.Error("low-priority launch preempted VMs")
	}
}

func TestHighPriorityPreemptsBeyondMinimums(t *testing.T) {
	c := newServer(t, ModeDeflation)
	for _, n := range []string{"a", "b", "c", "d"} {
		if _, _, err := c.LaunchVM(spec(n, vm.LowPriority, 0.9)); err != nil {
			t.Fatal(err)
		}
	}
	_, rep, err := c.LaunchVM(spec("hi", vm.HighPriority, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Preempted) == 0 {
		t.Error("high-priority launch did not preempt despite tight minimums")
	}
	if got := capOf(c).Preemptions; got != len(rep.Preempted) {
		t.Errorf("preemption counter %d != report %d", got, len(rep.Preempted))
	}
	// The preempted VM is gone.
	if _, err := c.VM(rep.Preempted[0]); !errors.Is(err, ErrVMNotFound) {
		t.Error("preempted VM still registered")
	}
}

func TestPreemptionOnlyModePreemptsInsteadOfDeflating(t *testing.T) {
	c := newServer(t, ModePreemptionOnly)
	for _, n := range []string{"a", "b", "c", "d"} {
		if _, _, err := c.LaunchVM(spec(n, vm.LowPriority, 0.25)); err != nil {
			t.Fatal(err)
		}
	}
	_, rep, err := c.LaunchVM(spec("hi", vm.HighPriority, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deflations != 0 {
		t.Errorf("preemption-only mode made %d deflations", rep.Deflations)
	}
	if len(rep.Preempted) == 0 {
		t.Error("preemption-only mode did not preempt")
	}
}

func TestReleaseReinflates(t *testing.T) {
	c := newServer(t, ModeDeflation)
	for _, n := range []string{"a", "b", "c", "d", "e"} {
		if _, _, err := c.LaunchVM(spec(n, vm.LowPriority, 0.25)); err != nil {
			t.Fatal(err)
		}
	}
	// All five deflated to 80% of nominal. Release one.
	if err := c.Release("e"); err != nil {
		t.Fatal(err)
	}
	if err := c.Release("e"); !errors.Is(err, ErrVMNotFound) {
		t.Errorf("double release err = %v", err)
	}
	// Survivors reinflated back to full size.
	for _, n := range []string{"a", "b", "c", "d"} {
		v, _ := c.VM(n)
		if v.Allocation() != v.Size() {
			t.Errorf("VM %s allocation = %v after release, want %v", n, v.Allocation(), v.Size())
		}
	}
}

func TestAvailabilityAccounting(t *testing.T) {
	c := newServer(t, ModeDeflation)
	if _, _, err := c.LaunchVM(spec("a", vm.LowPriority, 0.25)); err != nil {
		t.Fatal(err)
	}
	free := restypes.V(12, 49152, 300, 300)
	defl := restypes.V(3, 12288, 75, 75)
	sum, known := c.Capacity()
	if !known || sum.Free != free || c.Free() != free {
		t.Errorf("Free = %v, %v (known %v)", sum.Free, c.Free(), known)
	}
	if c.Deflatable() != defl {
		t.Errorf("Deflatable = %v", c.Deflatable())
	}
	if sum.Availability != free.Add(defl) {
		t.Errorf("Availability = %v", sum.Availability)
	}
	if got := sum.PreemptableCeiling; got != free.Add(restypes.V(4, 16384, 100, 100)) {
		t.Errorf("PreemptableCeiling = %v", got)
	}
	if got := c.NominalSize(); got != restypes.V(4, 16384, 100, 100) {
		t.Errorf("NominalSize = %v", got)
	}
	if oc := sum.Overcommitment; oc != 0.25 {
		t.Errorf("Overcommitment = %g, want 0.25 (4/16 CPU)", oc)
	}
	if sum.Mode != "deflation" || sum.Substrate != "hypervisor" || sum.Preemptions != 0 {
		t.Errorf("Mode %q, Substrate %q, Preemptions %d", sum.Mode, sum.Substrate, sum.Preemptions)
	}
}

func TestModeString(t *testing.T) {
	if ModeDeflation.String() != "deflation" || ModePreemptionOnly.String() != "preemption-only" {
		t.Error("mode strings wrong")
	}
}

// refController runs the reclamation code this package used before a
// command built one plan: the per-VM list, per-VM notification, comparator
// sort and two-walk reinflation, kept verbatim as the reference model for
// TestReclaimMatchesPerVMReference. Only the receiver type differs.
type refController struct{ *LocalController }

func (c *refController) LaunchVM(spec LaunchSpec) (*vm.VM, LaunchReport, error) {
	var rep LaunchReport
	if _, ok := c.vms.Get(spec.Name); ok {
		return nil, rep, fmt.Errorf("%w: %q", ErrVMExists, spec.Name)
	}
	newApp, err := spec.ResolveApp()
	if err != nil {
		return nil, rep, err
	}
	if !spec.Size.Fits(c.Free()) {
		// Only high-priority placements may preempt low-priority VMs;
		// low-priority VMs squeeze in through deflation alone.
		allowPreempt := spec.Priority == vm.HighPriority
		rep, err = c.Reclaim(spec.Size, allowPreempt)
		if err != nil {
			return nil, rep, err
		}
	}
	inst, err := c.host.Spawn(spec.Name, spec.Size, spec.GuestConfig)
	if err != nil {
		return nil, rep, fmt.Errorf("cluster: launch %q: %w", spec.Name, err)
	}
	if spec.Warm {
		inst.MarkWarm()
	}
	v, err := vm.NewOn(inst, newApp(spec.Size), vm.Config{Priority: spec.Priority, MinSize: spec.MinSize})
	if err != nil {
		inst.Destroy()
		c.capacityChanged()
		return nil, rep, err
	}
	c.vms.Put(spec.Name, v)
	c.capacityChanged()
	return v, rep, nil
}

func (c *refController) Reclaim(ensureFree restypes.Vector, allowPreempt bool) (LaunchReport, error) {
	var rep LaunchReport
	ensureFree = ensureFree.ClampNonNegative()
	limit := c.memo().sum.Availability
	if allowPreempt {
		limit = c.memo().sum.PreemptableCeiling
	}
	if !ensureFree.Fits(limit) {
		return rep, fmt.Errorf("%w: need %v, reclaimable %v", ErrNoCapacity, ensureFree, limit)
	}

	if c.mode == ModeDeflation {
		if err := c.proportionalDeflate(ensureFree, &rep); err != nil {
			return rep, err
		}
	}
	if ensureFree.Fits(c.Free()) {
		return rep, nil
	}
	if !allowPreempt {
		return rep, fmt.Errorf("%w: need %v free, have %v after deflation",
			ErrNoCapacity, ensureFree, c.Free())
	}
	// Preempt: the remaining deficit can only come from killing VMs (they
	// are already at their minimum sizes in deflation mode).
	if err := c.preemptUntil(ensureFree, &rep); err != nil {
		return rep, err
	}
	return rep, nil
}

func (c *refController) proportionalDeflate(ensureFree restypes.Vector, rep *LaunchReport) error {
	need := ensureFree.Sub(c.Free()).ClampNonNegative()
	lows := c.lowVMs()
	if len(lows) == 0 {
		return nil
	}

	ratio := need.FractionOf(c.Deflatable()).Min(restypes.Uniform(1))
	for _, v := range lows {
		if ensureFree.Fits(c.Free()) {
			return nil
		}
		target := v.Deflatable().Mul(ratio).Min(v.Deflatable()).ClampNonNegative()
		if err := c.deflateOne(v, target, rep); err != nil {
			return err
		}
	}

	// Drain pass: take the remaining demand from the most-deflatable VMs
	// first.
	sort.Slice(lows, func(i, j int) bool {
		return lows[i].Deflatable().Norm() > lows[j].Deflatable().Norm()
	})
	for _, v := range lows {
		remaining := ensureFree.Sub(c.Free()).ClampNonNegative()
		if remaining.IsZero() {
			return nil
		}
		if err := c.deflateOne(v, remaining.Min(v.Deflatable()), rep); err != nil {
			return err
		}
	}
	return nil
}

func (c *refController) lowVMs() []*vm.VM {
	out := make([]*vm.VM, 0, c.vms.Len())
	for _, v := range c.VMs() {
		if v.Priority() == vm.LowPriority {
			out = append(out, v)
		}
	}
	return out
}

func (c *refController) deflateOne(v *vm.VM, target restypes.Vector, rep *LaunchReport) error {
	target = target.ClampNonNegative()
	if target.IsZero() {
		return nil
	}
	var r cascade.Report
	err := c.casc.Deflate(v, target, &r)
	c.capacityChanged() // the cascade resized allocations even on partial failure
	if err != nil {
		return fmt.Errorf("cluster: deflating %q: %w", v.Name(), err)
	}
	rep.Deflations++
	rep.Reclaimed = rep.Reclaimed.Add(target.Sub(r.Shortfall).ClampNonNegative())
	// Per-VM cascades run concurrently (§5): report the slowest.
	if r.TotalLatency > rep.ReclaimLatency {
		rep.ReclaimLatency = r.TotalLatency
	}
	return nil
}

func (c *refController) Release(name string) error {
	v, ok := c.vms.Get(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrVMNotFound, name)
	}
	v.Preempt() // mechanically identical: destroy the domain
	c.vms.Delete(name)
	c.capacityChanged()
	c.ReinflateAll()
	return nil
}

func (c *refController) ReinflateAll() {
	var totalDeficit restypes.Vector
	for _, v := range c.VMs() {
		totalDeficit = totalDeficit.Add(v.Size().Sub(v.Allocation()).ClampNonNegative())
	}
	if totalDeficit.IsZero() {
		return
	}
	free := c.Free()
	ratio := free.FractionOf(totalDeficit).Min(restypes.Uniform(1))
	for _, v := range c.VMs() {
		deficit := v.Size().Sub(v.Allocation()).ClampNonNegative()
		amount := deficit.Mul(ratio)
		if amount.IsZero() {
			continue
		}
		// Reinflation is best-effort; failures leave the VM deflated.
		_ = c.casc.Reinflate(v, amount, &cascade.Report{})
		c.capacityChanged()
	}
}

// halveEvenNames is an SLO policy that lets VMs with an even-length name
// give up only half of each deflation target.
type halveEvenNames struct{}

func (halveEvenNames) ClampTarget(v *vm.VM, target restypes.Vector) restypes.Vector {
	if len(v.Name())%2 == 0 {
		return target.Scale(0.5)
	}
	return target
}

func sameBits(a, b restypes.Vector) bool {
	for _, k := range restypes.Kinds() {
		if math.Float64bits(a.At(k)) != math.Float64bits(b.At(k)) {
			return false
		}
	}
	return true
}

// diffTwins describes the first difference between one command's outcome on
// the controller and on its reference twin, or returns "".
func diffTwins(got, ref *LocalController, gr, rr LaunchReport, ge, re error) string {
	if fmt.Sprint(ge) != fmt.Sprint(re) {
		return fmt.Sprintf("error %v, reference %v", ge, re)
	}
	if gr.Deflations != rr.Deflations || !slices.Equal(gr.Preempted, rr.Preempted) {
		return fmt.Sprintf("%d deflations, preempted %v, reference %d %v", gr.Deflations, gr.Preempted, rr.Deflations, rr.Preempted)
	}
	if !sameBits(gr.Reclaimed, rr.Reclaimed) || gr.ReclaimLatency != rr.ReclaimLatency {
		return fmt.Sprintf("reclaimed %v in %v, reference %v in %v", gr.Reclaimed, gr.ReclaimLatency, rr.Reclaimed, rr.ReclaimLatency)
	}
	gv, rv := got.VMs(), ref.VMs()
	if len(gv) != len(rv) {
		return fmt.Sprintf("%d VMs, reference %d", len(gv), len(rv))
	}
	for i, v := range gv {
		w := rv[i]
		if v.Name() != w.Name() || !sameBits(v.Allocation(), w.Allocation()) ||
			math.Float64bits(v.Throughput()) != math.Float64bits(w.Throughput()) {
			return fmt.Sprintf("VM %s at %v (throughput %v), reference %s at %v (%v)",
				v.Name(), v.Allocation(), v.Throughput(), w.Name(), w.Allocation(), w.Throughput())
		}
	}
	return ""
}

// TestReclaimMatchesPerVMReference drives a controller and a reference twin
// through one seeded script of launches, releases and direct reclaims and
// requires bit-identical outcomes after every step: each VM's allocation
// and throughput, each report's Deflations, Reclaimed and
// ReclaimLatency, and each error. Two VM sizes and three floors make
// equal-Deflatable VMs common, so the drain pass sorts ties.
func TestReclaimMatchesPerVMReference(t *testing.T) {
	capacity := restypes.V(16, 65536, 400, 400)
	sizes := []restypes.Vector{restypes.V(2, 8192, 50, 50), restypes.V(4, 16384, 100, 100)}
	floors := []float64{0.1, 0.25, 0.5}
	cases := []struct {
		kind substrate.Kind
		slo  bool
	}{
		{substrate.KindHypervisor, false},
		{substrate.KindContainer, false},
		{substrate.KindHypervisor, true},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/proportional/slo=%v/seed%d", tc.kind, tc.slo, seed), func(t *testing.T) {
				var twins [2]*LocalController
				for i := range twins {
					var h substrate.Substrate
					var err error
					if tc.kind == substrate.KindContainer {
						h, err = simcg.NewHost(simcg.Config{Name: "s0", Capacity: capacity})
					} else {
						h, err = hypervisor.NewHost(hypervisor.Config{Name: "s0", Capacity: capacity})
					}
					if err != nil {
						t.Fatal(err)
					}
					twins[i] = NewLocalController(h, cascade.AllLevels(), ModeDeflation)
					if tc.slo {
						twins[i].Cascade().SetSLOPolicy(halveEvenNames{})
					}
				}
				got, ref := twins[0], &refController{twins[1]}
				rng := rand.New(rand.NewSource(seed))
				multi, next := 0, 0
				for step := 0; step < 300; step++ {
					var gr, rr LaunchReport
					var ge, re error
					op := "launch"
					switch r := rng.Intn(10); {
					case r < 6:
						size := sizes[rng.Intn(len(sizes))]
						s := LaunchSpec{
							Name: fmt.Sprintf("v%d", next), Size: size, MinSize: size.Scale(floors[rng.Intn(len(floors))]),
							Priority: vm.LowPriority, AppKind: "elastic", Warm: rng.Intn(2) == 0,
						}
						if rng.Intn(6) == 0 {
							s.Priority, s.MinSize, s.AppKind = vm.HighPriority, restypes.Vector{}, "inelastic"
						}
						next++
						_, gr, ge = got.LaunchVM(s)
						_, rr, re = ref.LaunchVM(s)
					case r < 9:
						op = "release"
						vms := got.VMs()
						if len(vms) == 0 {
							continue
						}
						name := vms[rng.Intn(len(vms))].Name()
						ge, re = got.Release(name), ref.Release(name)
					default:
						op = "reclaim"
						ensure, allow := capacity.Scale(rng.Float64()/2), rng.Intn(2) == 0
						gr, ge = got.Reclaim(ensure, allow)
						rr, re = ref.Reclaim(ensure, allow)
					}
					if d := diffTwins(got, ref.LocalController, gr, rr, ge, re); d != "" {
						t.Fatalf("step %d (%s): %s", step, op, d)
					}
					if gr.Deflations >= 2 {
						multi++
					}
				}
				if multi == 0 {
					t.Fatal("the script never deflated two VMs in one command")
				}
			})
		}
	}
}

// TestReclaimNotifiesOncePerCommand: a launch that deflates k VMs advances
// the generation and every watcher by 2 (the reclaim, then the new VM), and
// the release that reinflates them by 1, whatever k is.
func TestReclaimNotifiesOncePerCommand(t *testing.T) {
	per := restypes.V(2, 8192, 50, 50)
	for _, k := range []int{5, 8, 12} {
		h, err := hypervisor.NewHost(hypervisor.Config{Name: "s0", Capacity: per.Scale(float64(k))})
		if err != nil {
			t.Fatal(err)
		}
		c := NewLocalController(h, cascade.AllLevels(), ModeDeflation)
		var fired [2]int
		for i := range fired {
			c.WatchCapacity(func() { fired[i]++ })
		}
		launch := func(name string) LaunchReport {
			t.Helper()
			_, rep, err := c.LaunchVM(LaunchSpec{Name: name, Size: per, MinSize: per.Scale(0.25), AppKind: "elastic"})
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		for i := 0; i < k; i++ {
			launch(fmt.Sprintf("r%d", i))
		}
		check := func(what string, want uint64, gen0 uint64, fired0 [2]int) {
			t.Helper()
			if d := c.generation - gen0; d != want {
				t.Errorf("k=%d: %s advanced the generation by %d, want %d", k, what, d, want)
			}
			for i := range fired {
				if d := fired[i] - fired0[i]; d != int(want) {
					t.Errorf("k=%d: %s fired watcher %d %d times, want %d", k, what, i, d, want)
				}
			}
		}

		gen0, fired0 := c.generation, fired
		if rep := launch("new"); rep.Deflations != k {
			t.Fatalf("k=%d: the launch made %d deflations, want all %d residents", k, rep.Deflations, k)
		}
		check("a launch that deflated k VMs", 2, gen0, fired0)

		gen0, fired0 = c.generation, fired
		if err := c.Release("new"); err != nil {
			t.Fatal(err)
		}
		for _, v := range c.VMs() {
			if v.Allocation() != v.Size() {
				t.Fatalf("k=%d: %s at %v after the release, want %v", k, v.Name(), v.Allocation(), v.Size())
			}
		}
		check("a release that reinflated k VMs", 1, gen0, fired0)
	}
}

// countingSLO is halveEvenNames that counts its calls: the cascade consults
// it once per deflation with a nonzero target, so calls is the number of
// cascade runs.
type countingSLO struct {
	halveEvenNames
	calls int
}

func (p *countingSLO) ClampTarget(v *vm.VM, target restypes.Vector) restypes.Vector {
	p.calls++
	return p.halveEvenNames.ClampTarget(v, target)
}

// TestDeflationsCountsEveryCascadeRun: when the SLO clamp leaves a residue
// after the proportional pass, the drain pass deflates VMs a second time,
// and the report counts every cascade run. The reclaim notifies watchers
// once; a reclaim that deflates nothing does not notify them.
func TestDeflationsCountsEveryCascadeRun(t *testing.T) {
	size := restypes.V(4, 16384, 100, 100)
	h, err := hypervisor.NewHost(hypervisor.Config{Name: "s0", Capacity: size.Scale(2)})
	if err != nil {
		t.Fatal(err)
	}
	c := NewLocalController(h, cascade.AllLevels(), ModeDeflation)
	slo := &countingSLO{}
	c.Cascade().SetSLOPolicy(slo)
	for _, n := range []string{"a", "bb"} {
		if _, _, err := c.LaunchVM(spec(n, vm.LowPriority, 0.25)); err != nil {
			t.Fatal(err)
		}
	}
	fired := 0
	c.WatchCapacity(func() { fired++ })

	rep, err := c.Reclaim(size, false)
	if err != nil {
		t.Fatal(err)
	}
	if slo.calls <= 2 {
		t.Fatalf("%d cascade runs on 2 VMs: the drain pass never ran", slo.calls)
	}
	if rep.Deflations != slo.calls {
		t.Errorf("%d deflations, want %d cascade runs", rep.Deflations, slo.calls)
	}
	if fired != 1 {
		t.Errorf("a reclaim that deflated fired the watcher %d times, want 1", fired)
	}

	slo.calls, fired = 0, 0
	rep, err = c.Reclaim(size, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deflations != 0 || slo.calls != 0 {
		t.Errorf("a reclaim with the room already free made %d deflations in %d cascade runs", rep.Deflations, slo.calls)
	}
	if fired != 0 {
		t.Errorf("a reclaim that deflated nothing fired the watcher %d times", fired)
	}
}

// TestCapacityErrorText holds each refusal's typed error to the text
// fmt.Errorf wrote for it, and to ErrNoCapacity under errors.Is.
func TestCapacityErrorText(t *testing.T) {
	need, have := restypes.V(64, 65536, 100, 100), restypes.V(15, 61440, 375.5, 0)
	for _, c := range []struct {
		err  error
		want error
	}{
		{&capacityError{"no feasible server for %[1]v", need, restypes.Vector{}},
			fmt.Errorf("%w: no feasible server for %v", ErrNoCapacity, need)},
		{&capacityError{"need %[1]v, reclaimable %[2]v", need, have},
			fmt.Errorf("%w: need %v, reclaimable %v", ErrNoCapacity, need, have)},
		{&capacityError{"need %[1]v free, have %[2]v after deflation", need, have},
			fmt.Errorf("%w: need %v free, have %v after deflation", ErrNoCapacity, need, have)},
		{&capacityError{"need %[1]v free, have %[2]v, no preemptible VMs", need, have},
			fmt.Errorf("%w: need %v free, have %v, no preemptible VMs", ErrNoCapacity, need, have)},
	} {
		if got, want := c.err.Error(), c.want.Error(); got != want {
			t.Errorf("text %q, want %q", got, want)
		}
		if !errors.Is(c.err, ErrNoCapacity) {
			t.Errorf("%v does not unwrap to ErrNoCapacity", c.err)
		}
	}
}
