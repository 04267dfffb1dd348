package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"deflation/internal/spark"
	"deflation/internal/stats"
)

// The tests below assert the *shape* claims of each figure — who wins, by
// roughly what factor, where crossovers fall — not absolute numbers. Each
// reads the figure's one quick run for the test binary.

func TestFig1ShapeClaims(t *testing.T) {
	r := quick(t, "1").(curves)[0]
	if len(r.series) != 4 || len(r.x) != 10 {
		t.Fatalf("series/points: %d/%d", len(r.series), len(r.x))
	}
	for _, s := range r.series {
		if s.Values[0] < 0.99 {
			t.Errorf("%s at 0%% deflation = %g, want 1", s.Name, s.Values[0])
		}
		// Broadly decreasing (small local noise tolerated).
		if s.Values[len(s.Values)-1] > 0.5 {
			t.Errorf("%s at 90%% deflation = %g, want well degraded", s.Name, s.Values[len(s.Values)-1])
		}
		// Headline: at 50%, degradation stays modest (≥ ~0.5 for all).
		if at50 := at(t, r, s.Name, 50); at50 < 0.45 {
			t.Errorf("%s at 50%% = %g, want sub-proportional degradation", s.Name, at50)
		}
	}
	// Memcached and Kcompile tolerate 50% deflation with <30% loss.
	for _, name := range []string{"Memcached", "Kcompile"} {
		if v := at(t, r, name, 50); v < 0.70 {
			t.Errorf("%s at 50%% = %g, want ≥0.70 (paper: <30%% loss)", name, v)
		}
	}
	if !strings.Contains(quick(t, "1").Table(), "Figure 1") {
		t.Error("table rendering broken")
	}
}

func TestFig5aShapeClaims(t *testing.T) {
	r := quick(t, "5a").(curves)[0]
	hyp, osOnly, both := r.series[0], r.series[1], r.series[2]

	// OS-only: unaffected at moderate deflation, then OOM-killed.
	if osOnly.Values[1] < 0.99 {
		t.Errorf("OS-only at 10%% = %g, want 1 (free memory unplugged)", osOnly.Values[1])
	}
	last := osOnly.Values[len(osOnly.Values)-1]
	if last != 0 {
		t.Errorf("OS-only at 50%% = %g, want 0 (OOM)", last)
	}
	// Hypervisor-only declines gently from early on (black-box cost) and
	// is ≈0.7-0.85 at 50%.
	if hyp.Values[1] >= 0.999 {
		t.Errorf("hypervisor-only at 10%% = %g, want < 1 (wrong pages)", hyp.Values[1])
	}
	h50 := hyp.Values[len(hyp.Values)-1]
	if h50 < 0.6 || h50 > 0.9 {
		t.Errorf("hypervisor-only at 50%% = %g, want ≈0.75 (paper: ~20%% loss)", h50)
	}
	// Hypervisor+OS dominates OS-only at 50% (alive) and hypervisor-only
	// at ≤40% (no black-box cost while unplug suffices).
	for i := 0; i <= 4; i++ {
		if both.Values[i] < hyp.Values[i] {
			t.Errorf("Hyp+OS below hypervisor-only at %g%%", r.x[i])
		}
	}
	if both.Values[len(both.Values)-1] <= 0 {
		t.Error("Hyp+OS died at 50%")
	}
}

func TestFig5bShapeClaims(t *testing.T) {
	r := quick(t, "5b").(curves)[0]
	hyp, osOnly, both := r.series[0], r.series[1], r.series[2]
	n := len(r.x) - 1

	// Lock-holder preemption: hypervisor-only strictly below OS-only at
	// deep CPU deflation, by roughly the paper's ≈22%.
	gap := (osOnly.Values[n] - hyp.Values[n]) / osOnly.Values[n]
	if gap < 0.08 || gap > 0.35 {
		t.Errorf("hypervisor-vs-OS gap at 80%% = %.0f%%, want ≈10-30%%", gap*100)
	}
	// Paper: Hyp+OS at 75% deflation loses only ≈30%.
	i70 := 7 // 70%
	if both.Values[i70] < 0.6 {
		t.Errorf("Hyp+OS at 70%% = %g, want ≥0.6", both.Values[i70])
	}
	// Hyp+OS ≥ hypervisor-only everywhere (unplug first avoids LHP).
	for i := range r.x {
		if both.Values[i] < hyp.Values[i]-1e-9 {
			t.Errorf("Hyp+OS below hypervisor-only at %g%%", r.x[i])
		}
	}
}

func TestFig5cShapeClaims(t *testing.T) {
	r := quick(t, "5c").(curves)[0]
	unmod, aware := r.series[0], r.series[1]
	n := len(r.x) - 1

	// Peak throughput ≈150 kGETS/s, equal before deflation.
	if unmod.Values[0] < 120 || unmod.Values[0] > 160 {
		t.Errorf("baseline = %g kGETS/s, want ≈150", unmod.Values[0])
	}
	// The paper's headline: app deflation is worth up to ≈6× at high
	// memory deflation.
	ratio := aware.Values[n] / unmod.Values[n]
	if ratio < 3 {
		t.Errorf("aware/unmodified at 60%% = %.1fx, want ≥3x (paper: up to 6x)", ratio)
	}
	// Aware degrades gracefully (hit-rate loss only).
	if aware.Values[n] < aware.Values[0]*0.75 {
		t.Errorf("aware at 60%% = %g, want ≥75%% of baseline %g", aware.Values[n], aware.Values[0])
	}
}

func TestFig5dShapeClaims(t *testing.T) {
	r := quick(t, "5d").(curves)[0]
	unmod, aware := r.series[0], r.series[1]
	n := len(r.x) - 1
	// Equal at zero deflation; aware better at high deflation (paper: ≈20%).
	if math.Abs(unmod.Values[0]-aware.Values[0]) > 1 {
		t.Errorf("baselines differ: %g vs %g", unmod.Values[0], aware.Values[0])
	}
	if aware.Values[n] >= unmod.Values[n] {
		t.Errorf("aware RT %g not below unmodified %g at 60%%", aware.Values[n], unmod.Values[n])
	}
	improvement := 1 - aware.Values[n]/unmod.Values[n]
	if improvement < 0.15 {
		t.Errorf("aware improvement at 60%% = %.0f%%, want ≥15%%", improvement*100)
	}
	// Response times rise monotonically with deflation for both.
	for i := 1; i <= n; i++ {
		if unmod.Values[i] < unmod.Values[i-1]-1 {
			t.Errorf("unmodified RT not monotone at %g%%", r.x[i])
		}
	}
}

func TestFig6ShapeClaims(t *testing.T) {
	r := quick(t, "6").(fig6Result)
	value := func(panel int, m spark.PressureMechanism, d float64) float64 {
		return at(t, r.panels[panel], m.String(), d)
	}
	// ALS (shuffle-heavy): VM < Self < Preempt; policy chooses VM-level.
	vm50 := value(0, spark.PressureVMLevel, 0.5)
	self50 := value(0, spark.PressureSelf, 0.5)
	pre50 := value(0, spark.PressurePreempt, 0.5)
	pol50 := value(0, spark.PressurePolicy, 0.5)
	if !(vm50 < self50 && self50 < pre50) {
		t.Errorf("ALS ordering: VM %.2f, Self %.2f, Preempt %.2f", vm50, self50, pre50)
	}
	if vm50 < 1.3 || vm50 > 1.8 {
		t.Errorf("ALS VM-level at 50%% = %.2f, want ≈1.5", vm50)
	}
	if pol50 != vm50 {
		t.Errorf("ALS policy %.2f did not match VM-level %.2f", pol50, vm50)
	}
	for _, c := range r.chosen[0] {
		if c != spark.PressureVMLevel {
			t.Errorf("ALS policy chose %v, want VM", c)
		}
	}

	// K-means (map-heavy over cached input): policy chooses self; self
	// beats VM-level at 50%.
	kmSelf := value(1, spark.PressureSelf, 0.5)
	kmVM := value(1, spark.PressureVMLevel, 0.5)
	kmPol := value(1, spark.PressurePolicy, 0.5)
	if kmSelf >= kmVM {
		t.Errorf("K-means self %.2f not below VM %.2f at 50%%", kmSelf, kmVM)
	}
	if kmPol != kmSelf {
		t.Errorf("K-means policy %.2f did not match self %.2f", kmPol, kmSelf)
	}
	if kmSelf < 1.1 || kmSelf > 1.7 {
		t.Errorf("K-means self at 50%% = %.2f, want ≈1.4", kmSelf)
	}

	// CNN (synchronous training): VM-level mild (≈1.2 at 50%); preemption
	// ≈2× worse; policy always VM-level.
	cnnVM := value(2, spark.PressureVMLevel, 0.5)
	cnnPre := value(2, spark.PressurePreempt, 0.5)
	if cnnVM < 1.1 || cnnVM > 1.45 {
		t.Errorf("CNN VM-level at 50%% = %.2f, want ≈1.2 (paper: 20%%)", cnnVM)
	}
	if cnnPre/cnnVM < 1.5 {
		t.Errorf("CNN preempt/VM = %.2f, want ≥1.5 (paper ≈2x)", cnnPre/cnnVM)
	}
	for _, c := range r.chosen[2] {
		if c != spark.PressureVMLevel {
			t.Errorf("CNN policy chose %v, want VM", c)
		}
	}

	// RNN: same structure, ≈1.25 at 50% with VM-level.
	rnnVM := value(3, spark.PressureVMLevel, 0.5)
	rnnPre := value(3, spark.PressurePreempt, 0.5)
	if rnnVM < 1.15 || rnnVM > 1.5 {
		t.Errorf("RNN VM-level at 50%% = %.2f, want ≈1.25", rnnVM)
	}
	if rnnPre <= rnnVM {
		t.Errorf("RNN preempt %.2f not worse than VM %.2f", rnnPre, rnnVM)
	}
}

func TestFig7aShapeClaims(t *testing.T) {
	r := quick(t, "7a").(curves)[0]
	self, vmlvl := r.series[0], r.series[1]
	n := len(r.x) - 1
	// Early: self better. Late: VM-level better. A crossover in between.
	if self.Values[0] >= vmlvl.Values[0] {
		t.Errorf("early: self %.2f not below VM %.2f", self.Values[0], vmlvl.Values[0])
	}
	if self.Values[n] <= vmlvl.Values[n] {
		t.Errorf("late: self %.2f not above VM %.2f", self.Values[n], vmlvl.Values[n])
	}
	// VM-level overhead trends downward with later deflation.
	for i := 1; i <= n; i++ {
		if vmlvl.Values[i] > vmlvl.Values[i-1]+1e-9 {
			t.Errorf("VM-level overhead rose at progress %g%%", r.x[i])
		}
	}
}

func TestFig7bShapeClaims(t *testing.T) {
	r := quick(t, "7b").(timelines)
	baseline, deflation, preemption := r[0], r[1], r[2]
	// Baseline is flat at ≈720 records/s.
	if baseline.Max() < 700 || baseline.Max() > 740 {
		t.Errorf("baseline throughput = %g, want ≈720", baseline.Max())
	}
	// Deflation: dips during pressure (minutes 10–40), recovers after.
	during := deflation.At(25 * 60 * 1e9)
	after := deflation.At(70 * 60 * 1e9)
	if during >= baseline.Max()*0.95 {
		t.Errorf("deflation throughput during pressure = %g, want a dip", during)
	}
	if during < baseline.Max()*0.5 {
		t.Errorf("deflation dip = %g, too deep (paper: ≈20-30%%)", during)
	}
	if after < baseline.Max()*0.95 {
		t.Errorf("deflation did not recover: %g", after)
	}
	// Preemption: checkpointing tax even before pressure, and a restart
	// gap (a zero sample) at the pressure start.
	before := preemption.At(5 * 60 * 1e9)
	if before >= baseline.Max()*0.95 {
		t.Errorf("preemption pre-pressure throughput = %g, want checkpoint tax", before)
	}
	// The series are step functions over the 80-minute window; read them
	// on a one-second grid.
	sawZero := false
	mean := func(ts *stats.TimeSeries) float64 {
		var sum float64
		n := 0
		for at := time.Duration(0); at < 80*time.Minute; at += time.Second {
			v := ts.At(at)
			if ts == preemption && v == 0 && at >= 10*time.Minute {
				sawZero = true
			}
			sum += v
			n++
		}
		return sum / float64(n)
	}
	// Deflation's time-averaged throughput beats preemption's (paper:
	// ≈20% better even including the pressure window).
	if d, p := mean(deflation), mean(preemption); d <= p {
		t.Errorf("deflation mean %g not above preemption mean %g", d, p)
	}
	if !sawZero {
		t.Error("preemption series has no restart gap")
	}
}

func TestFig8aShapeClaims(t *testing.T) {
	r := quick(t, "8a").(timelines)
	sparkTS, memTS, total := r[0], r[1], r[2]
	// Total peaks well above 1 during co-location (paper: ≈1.8).
	peak := total.Max()
	if peak < 1.5 || peak > 1.9 {
		t.Errorf("total peak = %.2f, want ≈1.6-1.8", peak)
	}
	// Spark dips during pressure, recovers fully after.
	during := sparkTS.At(60 * 60 * 1e9)
	after := sparkTS.At(110 * 60 * 1e9)
	if during > 0.9 || during < 0.5 {
		t.Errorf("spark during pressure = %.2f, want ≈0.7 (20-30%% loss)", during)
	}
	if after < 0.99 {
		t.Errorf("spark after pressure = %.2f, want full recovery", after)
	}
	// Memcached serves at (near) full speed while present.
	if mc := memTS.At(60 * 60 * 1e9); mc < 0.9 {
		t.Errorf("memcached during co-location = %.2f", mc)
	}
}

func TestFig8bShapeClaims(t *testing.T) {
	r := quick(t, "8b").(curves)[0]
	hyp, both, casc := r.series[0], r.series[1], r.series[2]
	n := len(r.x) - 1 // 55%

	// Cascade stays under 100 s even at the deepest deflation (paper).
	if casc.Values[n] > 100 {
		t.Errorf("cascade latency at 55%% = %.0fs, want <100s", casc.Values[n])
	}
	// Without app deflation, latency is 2–3× (and hypervisor-only worse).
	if both.Values[n]/casc.Values[n] < 1.5 {
		t.Errorf("Hyp+OS/cascade = %.1fx, want ≥1.5x (paper: 2-3x)", both.Values[n]/casc.Values[n])
	}
	if hyp.Values[n] <= both.Values[n] {
		t.Errorf("hypervisor-only %.0fs not worse than Hyp+OS %.0fs", hyp.Values[n], both.Values[n])
	}
	// Hypervisor-only ≈300s at 50% (swap-bandwidth bound).
	i50 := n - 1
	if hyp.Values[i50] < 200 || hyp.Values[i50] > 400 {
		t.Errorf("hypervisor-only at 50%% = %.0fs, want ≈300s", hyp.Values[i50])
	}
	// Latency grows with deflation level for every mechanism.
	for _, s := range r.series {
		for i := 1; i < len(s.Values); i++ {
			if s.Values[i] < s.Values[i-1]-1e-9 {
				t.Errorf("%s latency not monotone at %g%%", s.Name, r.x[i])
			}
		}
	}
}

func TestFig8cQuickShapeClaims(t *testing.T) {
	r := quick(t, "8c").(curves)[0]
	defl, pre := r.series[0].Values, r.series[1].Values
	for i := range r.x {
		if defl[i] >= pre[i] {
			t.Errorf("at %g%%: deflation %.3f not below preemption-only %.3f", r.x[i], defl[i], pre[i])
		}
	}
	// Deflation near zero at 50% overcommit.
	if defl[0] > 0.05 {
		t.Errorf("deflation at 50%% overcommit = %.3f, want ≈0", defl[0])
	}
	// Preemption-only substantial everywhere.
	if pre[0] < 0.1 {
		t.Errorf("preemption-only at 50%% = %.3f, want ≥0.1", pre[0])
	}
}

func TestFig8cXLQuickShapeClaims(t *testing.T) {
	r := quick(t, "8c-xl").(curves)[0]
	defl, pre, oc := r.series[0].Values, r.series[1].Values, r.series[2].Values
	for i, n := range r.x {
		// Deflation's advantage holds at every fleet size.
		if defl[i] >= pre[i]/2 {
			t.Errorf("%g nodes: deflation %.3f not well below preemption-only %.3f", n, defl[i], pre[i])
		}
		if oc[i] <= 1 {
			t.Errorf("%g nodes: achieved overcommit %.3f, want > 1", n, oc[i])
		}
		// Constant per-server load: the baseline is roughly scale-invariant.
		if ratio := pre[i] / pre[0]; ratio < 0.75 || ratio > 1.25 {
			t.Errorf("%g nodes: preemption-only %.3f drifted from %.3f at %g nodes", n, pre[i], pre[0], r.x[0])
		}
	}
}

func TestFig8dQuickShapeClaims(t *testing.T) {
	r := quick(t, "8d").(fig8dResult)
	if len(r.policies) != 3 {
		t.Fatalf("policies: %v", r.policies)
	}
	// All policies sustain overcommitment ≈equal mean (the paper's point:
	// deflation masks placement differences).
	for i := 1; i < 3; i++ {
		ratio := r.mean[i] / r.mean[0]
		if ratio < 0.85 || ratio > 1.2 {
			t.Errorf("%s mean %.2f far from %s mean %.2f",
				r.policies[i], r.mean[i], r.policies[0], r.mean[0])
		}
	}
	// And all overcommit beyond 1× nominal.
	for i, m := range r.mean {
		if m < 1.0 {
			t.Errorf("%s mean overcommit = %.2f, want > 1", r.policies[i], m)
		}
	}
	if !strings.Contains(r.Table(), "best-fit") {
		t.Error("table rendering broken")
	}
}

func TestRevenueShapeClaims(t *testing.T) {
	r := quick(t, "revenue").(revenueResult)
	if len(r) != 3 {
		t.Fatalf("rows = %d", len(r))
	}
	preempt, deflFlat, deflRaaS := r[0], r[1], r[2]
	// §8's argument: deflation's higher utilization earns the provider
	// more than the preemption-only baseline, under either pricing model.
	if deflFlat.Revenue <= preempt.Revenue {
		t.Errorf("deflation flat %.2f not above preemption %.2f", deflFlat.Revenue, preempt.Revenue)
	}
	if deflRaaS.Revenue <= preempt.Revenue {
		t.Errorf("deflation RaaS %.2f not above preemption %.2f", deflRaaS.Revenue, preempt.Revenue)
	}
	if deflFlat.CoreHoursSold <= preempt.CoreHoursSold {
		t.Errorf("deflation core-hours %.0f not above preemption %.0f",
			deflFlat.CoreHoursSold, preempt.CoreHoursSold)
	}
	// And it does so while preempting far less.
	if deflFlat.PreemptProb >= preempt.PreemptProb/2 {
		t.Errorf("deflation preempt-p %.3f not well below baseline %.3f",
			deflFlat.PreemptProb, preempt.PreemptProb)
	}
	if !strings.Contains(r.Table(), "revenue") {
		t.Error("rendering broken")
	}
}
