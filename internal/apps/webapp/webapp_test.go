package webapp

import (
	"math"
	"testing"

	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
)

func fullEnv() hypervisor.Env {
	return hypervisor.Env{
		VCPUs: 4, PhysCores: 4, EffectiveCores: 4,
		GuestMemMB: 16384, ResidentMB: 16384, EverTouchedMB: 16384,
		KernelMemMB: 256, LocalityFactor: 1, DiskMBps: 100, NetMBps: 1250,
	}
}

func newApp(t *testing.T, aware bool) *App {
	t.Helper()
	a := NewApp(Config{DeflationAware: aware})
	return a
}

func TestBaseline(t *testing.T) {
	a := newApp(t, true)
	// 64 threads on 4 cores × 16/core: exactly sustainable → 64×25 RPS.
	if got := a.CapacityRPS(fullEnv()); got != 1600 {
		t.Errorf("capacity = %g, want 1600", got)
	}
	if got := a.Throughput(fullEnv()); got != 1 {
		t.Errorf("throughput = %g", got)
	}
	if lat := a.LatencyMS(fullEnv(), 800); lat <= 4 || lat > 10 {
		t.Errorf("half-load latency = %g, want ≈8ms", lat)
	}
	if !math.IsInf(a.LatencyMS(fullEnv(), 1600), 1) {
		t.Error("saturated latency finite")
	}
}

func TestOversubscriptionPenalty(t *testing.T) {
	a := newApp(t, false) // unmodified keeps 64 threads
	env := fullEnv()
	env.EffectiveCores = 2 // 64 threads on 2 cores: 2x oversubscribed
	cap := a.CapacityRPS(env)
	// Sustainable = 32×25 = 800, minus context-switch shaving.
	if cap >= 800 || cap < 600 {
		t.Errorf("oversubscribed capacity = %g, want (600, 800)", cap)
	}
}

func TestAwareShrinksPool(t *testing.T) {
	a := newApp(t, true)
	rel, lat := a.SelfDeflate(restypes.V(2, 0, 0, 0))
	if a.Threads() != 32 {
		t.Errorf("threads = %d, want 32", a.Threads())
	}
	if rel.CPU <= 0 || rel.CPU > 2 {
		t.Errorf("relinquished %v", rel)
	}
	if lat <= 0 {
		t.Error("no drain latency")
	}
	// The shrunk pool avoids oversubscription entirely at 2 cores.
	env := fullEnv()
	env.EffectiveCores = 2
	if got := a.CapacityRPS(env); got != 800 {
		t.Errorf("aware capacity at 2 cores = %g, want clean 800", got)
	}
}

func TestAwareBeatsUnmodifiedUnderCPUDeflation(t *testing.T) {
	aware := newApp(t, true)
	unmod := newApp(t, false)
	aware.SelfDeflate(restypes.V(2, 0, 0, 0))
	env := fullEnv()
	env.EffectiveCores = 2
	if aware.CapacityRPS(env) <= unmod.CapacityRPS(env) {
		t.Errorf("aware %g not above unmodified %g",
			aware.CapacityRPS(env), unmod.CapacityRPS(env))
	}
}

func TestShrinkFloorsAndReinflate(t *testing.T) {
	a := newApp(t, true)
	a.SelfDeflate(restypes.V(100, 0, 0, 0))
	if a.Threads() != 4 {
		t.Errorf("threads = %d, want floor 4", a.Threads())
	}
	if rel, _ := a.SelfDeflate(restypes.V(1, 0, 0, 0)); !rel.IsZero() {
		t.Error("shrank below floor")
	}
	a.Reinflate(fullEnv())
	if a.Threads() != 64 {
		t.Errorf("threads after reinflate = %d, want 64", a.Threads())
	}
}

func TestUnmodifiedIgnores(t *testing.T) {
	a := newApp(t, false)
	if rel, lat := a.SelfDeflate(restypes.V(2, 0, 0, 0)); !rel.IsZero() || lat != 0 {
		t.Error("unmodified server reacted")
	}
	if a.Threads() != 64 {
		t.Error("pool changed")
	}
}

func TestFootprintIncludesStacks(t *testing.T) {
	a := newApp(t, true)
	rss, cache := a.Footprint()
	if rss != 1024+128 || cache != 1024 {
		t.Errorf("footprint = %g/%g", rss, cache)
	}
	a.SelfDeflate(restypes.V(2, 0, 0, 0))
	rss2, _ := a.Footprint()
	if rss2 >= rss {
		t.Error("footprint did not shrink with the pool")
	}
}

func TestLoadBalancerWeightsFollowCapacity(t *testing.T) {
	if _, err := NewLoadBalancer(nil); err == nil {
		t.Error("empty balancer accepted")
	}
	apps := []*App{newApp(t, true), newApp(t, true), newApp(t, true)}
	lb, err := NewLoadBalancer(apps)
	if err != nil {
		t.Fatal(err)
	}
	envs := []hypervisor.Env{fullEnv(), fullEnv(), fullEnv()}

	w, err := lb.Weights(envs)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range w {
		if math.Abs(x-1.0/3) > 1e-9 {
			t.Errorf("uniform weights = %v", w)
		}
	}

	// Deflate server 0 by half its CPU: its weight drops accordingly.
	apps[0].SelfDeflate(restypes.V(2, 0, 0, 0))
	envs[0].EffectiveCores = 2
	w, err = lb.Weights(envs)
	if err != nil {
		t.Fatal(err)
	}
	if w[0] >= w[1] {
		t.Errorf("deflated server weight %g not below healthy %g", w[0], w[1])
	}
	if math.Abs(w[0]+w[1]+w[2]-1) > 1e-9 {
		t.Errorf("weights not normalized: %v", w)
	}

	if _, err := lb.Weights(envs[:1]); err == nil {
		t.Error("mismatched envs accepted")
	}
}

func TestServeUnderDeflation(t *testing.T) {
	apps := []*App{newApp(t, true), newApp(t, true), newApp(t, true)}
	lb, _ := NewLoadBalancer(apps)
	envs := []hypervisor.Env{fullEnv(), fullEnv(), fullEnv()}

	// 3 servers × 1600 capacity; offer 3600 RPS (75% load).
	before, err := lb.Serve(envs, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if before.DroppedRPS != 0 {
		t.Errorf("dropped %g at 75%% load", before.DroppedRPS)
	}

	// Deflate one server: the cluster sheds a little capacity but keeps
	// serving, with the deflated server taking a smaller share.
	apps[0].SelfDeflate(restypes.V(2, 0, 0, 0))
	envs[0].EffectiveCores = 2
	after, err := lb.Serve(envs, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if after.PerServerRPS[0] >= after.PerServerRPS[1] {
		t.Errorf("deflated server serving %g ≥ healthy %g",
			after.PerServerRPS[0], after.PerServerRPS[1])
	}
	if after.ServedRPS < before.ServedRPS*0.85 {
		t.Errorf("served %g collapsed from %g", after.ServedRPS, before.ServedRPS)
	}
	if math.IsInf(after.MeanLatencyMS, 1) || after.MeanLatencyMS <= before.MeanLatencyMS {
		t.Errorf("latency %g, want finite and above %g", after.MeanLatencyMS, before.MeanLatencyMS)
	}
}

// TestServeZeroLiveCapacityOverloads: a pool whose every replica has zero
// live capacity (fully deflated or OOM-killed) must report explicit
// overload with the full offered load dropped — regression test for the
// divide-by-zero / silently-stranded-load path.
func TestServeZeroLiveCapacityOverloads(t *testing.T) {
	apps := []*App{newApp(t, true), newApp(t, true)}
	lb, _ := NewLoadBalancer(apps)
	dead := fullEnv()
	dead.OOMKilled = true
	envs := []hypervisor.Env{dead, dead}

	w, err := lb.Weights(envs)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range w {
		if x != 0 || math.IsNaN(x) {
			t.Errorf("weight[%d] = %g, want exactly 0", i, x)
		}
	}

	res, err := lb.Serve(envs, 2500)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Overloaded {
		t.Error("zero-capacity pool not flagged Overloaded")
	}
	if res.ServedRPS != 0 || res.DroppedRPS != 2500 {
		t.Errorf("served %g dropped %g, want 0/2500", res.ServedRPS, res.DroppedRPS)
	}
	if math.IsNaN(res.MeanLatencyMS) || math.IsInf(res.MeanLatencyMS, 0) {
		t.Errorf("latency %g, want finite zero", res.MeanLatencyMS)
	}
	for i, rps := range res.PerServerRPS {
		if rps != 0 {
			t.Errorf("dead server %d assigned %g rps", i, rps)
		}
	}

	// A live pool never reports overload.
	live, err := lb.Serve([]hypervisor.Env{fullEnv(), fullEnv()}, 2500)
	if err != nil {
		t.Fatal(err)
	}
	if live.Overloaded {
		t.Error("healthy pool flagged Overloaded")
	}
}
