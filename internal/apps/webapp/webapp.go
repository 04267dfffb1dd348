// Package webapp models a web-server cluster — the fourth application class
// of Table 1 ("Web servers - CPU: reduce size of thread pool") and the
// paper's footnote on deflation-aware load balancing: "web-application
// clusters ... can use a deflation-aware load-balancer for cascade
// deflation".
//
// Each server runs a worker-thread pool; its deflation policy shrinks the
// pool when CPU is reclaimed ("adjust the load-balancing rules accordingly
// — serve less traffic from deflated servers"). The LoadBalancer
// distributes offered load across servers in proportion to their live
// capacity, so a deflated server receives less traffic instead of building
// an unbounded queue.
package webapp

import (
	"fmt"
	"math"
	"time"

	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
)

// Config describes one web-server VM.
type Config struct {
	// Cores is the booted vCPU count (default 4).
	Cores float64
	// DeflationAware enables the Table 1 policy: shrink the pool to match
	// reclaimed CPU. Unmodified servers keep their threads and suffer
	// oversubscription instead.
	DeflationAware bool
}

func (c Config) withDefaults() Config {
	if c.Cores == 0 {
		c.Cores = 4
	}
	return c
}

// The server model, which the SLO-targeting deflation policy inverts when it
// converts a required capacity back into cores.
const (
	// BootThreads is the worker pool size at boot.
	BootThreads = 64
	// ThreadsPerCore is the pool size the server runs per vCPU without
	// oversubscription penalties.
	ThreadsPerCore float64 = 16
	// rpsPerThread is each worker's request throughput.
	rpsPerThread float64 = 25
	// BaseLatencyMS is the unloaded request latency.
	BaseLatencyMS float64 = 4
	// RSSMB is the server's resident set; web serving also generates
	// cacheMB of page cache for static content.
	RSSMB, cacheMB float64 = 1024, 1024
	// minThreads bounds shrinking.
	minThreads = 4
)

// App is one web server as a deflatable application (vm.Application).
type App struct {
	cfg     Config
	threads int
	baseRPS float64
}

// NewApp builds a web server.
func NewApp(cfg Config) *App {
	a := &App{cfg: cfg.withDefaults(), threads: BootThreads}
	a.baseRPS = a.capacityWith(BootThreads, a.cfg.Cores)
	return a
}

// Name implements vm.Application.
func (a *App) Name() string { return "webserver" }

// Threads returns the current pool size.
func (a *App) Threads() int { return a.threads }

// Footprint implements vm.Application. Thread stacks are small; the
// footprint is dominated by the configured RSS and static-content cache.
func (a *App) Footprint() (float64, float64) {
	return RSSMB + float64(a.threads)*2, cacheMB
}

// capacityWith returns the sustainable RPS for a pool size on the given
// effective cores: workers deliver full throughput while the pool is at or
// under ThreadsPerCore×cores; oversubscribed workers contend for CPU.
func (a *App) capacityWith(threads int, cores float64) float64 {
	if threads <= 0 || cores <= 0 {
		return 0
	}
	sustainable := ThreadsPerCore * cores
	n := float64(threads)
	if n <= sustainable {
		return n * rpsPerThread
	}
	// Oversubscription: the CPU caps useful work at the sustainable pool,
	// and context switching shaves throughput as the ratio grows.
	overs := n / sustainable
	return sustainable * rpsPerThread / (1 + 0.15*(overs-1))
}

// SelfDeflate implements vm.Application: the aware policy shrinks the
// thread pool to match the post-deflation CPU ("reduce size of thread
// pool"), cheaply and instantly; the load balancer will route less traffic
// here. Unmodified servers ignore the request.
func (a *App) SelfDeflate(target restypes.Vector) (restypes.Vector, time.Duration) {
	if !a.cfg.DeflationAware || target.CPU <= 0 {
		return restypes.Vector{}, 0
	}
	want := a.poolFor(a.cfg.Cores - target.CPU)
	if want >= a.threads {
		return restypes.Vector{}, 0
	}
	freedThreads := a.threads - want
	a.threads = want
	// Draining worker threads is quick (~5ms per worker to finish in-flight
	// requests), and frees their CPU share.
	freedCores := float64(freedThreads) / ThreadsPerCore
	if freedCores > target.CPU {
		freedCores = target.CPU
	}
	return restypes.Vector{CPU: freedCores},
		time.Duration(freedThreads) * 5 * time.Millisecond
}

// Reinflate implements vm.Application: grow the pool back to what the
// restored CPU sustains.
func (a *App) Reinflate(env hypervisor.Env) {
	if !a.cfg.DeflationAware {
		return
	}
	want := int(math.Floor(ThreadsPerCore * env.EffectiveCores))
	if want > BootThreads {
		want = BootThreads
	}
	if want > a.threads {
		a.threads = want
	}
}

// PlannedCapacityRPS predicts the server's capacity after the cascade
// reclaims reclaimCPU cores and the resulting envelope provides effCores:
// the aware policy shrinks the pool exactly as SelfDeflate would, the
// unmodified server keeps its current pool. This is the planning view the
// SLO-targeting deflation policy inverts; it never mutates the server.
func (a *App) PlannedCapacityRPS(reclaimCPU, effCores float64) float64 {
	threads := a.threads
	if a.cfg.DeflationAware && reclaimCPU > 0 {
		if want := a.poolFor(a.cfg.Cores - reclaimCPU); want < threads {
			threads = want
		}
	}
	return a.capacityWith(threads, effCores)
}

// poolFor returns the pool size the aware policy keeps for the given cores.
func (a *App) poolFor(cores float64) int {
	if cores < 0 {
		cores = 0
	}
	want := int(math.Floor(ThreadsPerCore * cores))
	if want < minThreads {
		want = minThreads
	}
	return want
}

// CapacityRPS returns the server's sustainable request rate in env.
func (a *App) CapacityRPS(env hypervisor.Env) float64 {
	if env.OOMKilled {
		return 0
	}
	return a.capacityWith(a.threads, env.EffectiveCores)
}

// LatencyMS returns the mean request latency at the given offered rate
// (M/M/1-style queueing against the capacity in env; +Inf when saturated).
func (a *App) LatencyMS(env hypervisor.Env, offeredRPS float64) float64 {
	cap := a.CapacityRPS(env)
	if cap <= 0 || offeredRPS >= cap {
		return math.Inf(1)
	}
	return BaseLatencyMS / (1 - offeredRPS/cap)
}

// Throughput implements vm.Application: capacity normalized to boot.
func (a *App) Throughput(env hypervisor.Env) float64 {
	if a.baseRPS == 0 {
		return 0
	}
	t := a.CapacityRPS(env) / a.baseRPS
	if t > 1 {
		t = 1
	}
	return t
}

// LoadBalancer spreads offered traffic across a pool of web servers in
// proportion to their current capacity — the deflation-aware balancing of
// footnote 2. Servers are identified by index.
type LoadBalancer struct {
	apps []*App
}

// NewLoadBalancer builds a balancer over servers.
func NewLoadBalancer(apps []*App) (*LoadBalancer, error) {
	if len(apps) == 0 {
		return nil, fmt.Errorf("webapp: balancer needs servers")
	}
	return &LoadBalancer{apps: apps}, nil
}

// Weights returns the current traffic share per server given each server's
// environment, proportional to capacity. When every server has zero live
// capacity (fully deflated pool, OOM-killed fleet) the returned weights
// are all zero — callers must treat that as overload, as Serve does.
func (lb *LoadBalancer) Weights(envs []hypervisor.Env) ([]float64, error) {
	if len(envs) != len(lb.apps) {
		return nil, fmt.Errorf("webapp: %d envs for %d servers", len(envs), len(lb.apps))
	}
	weights := make([]float64, len(lb.apps))
	var total float64
	for i, a := range lb.apps {
		weights[i] = a.CapacityRPS(envs[i])
		total += weights[i]
	}
	if total == 0 {
		return weights, nil
	}
	for i := range weights {
		weights[i] /= total
	}
	return weights, nil
}

// ServeResult summarizes balanced traffic.
type ServeResult struct {
	ServedRPS     float64
	DroppedRPS    float64
	MeanLatencyMS float64
	PerServerRPS  []float64
	// Overloaded reports that the pool had zero live capacity: nothing
	// was served and the entire offered load was dropped, explicitly,
	// instead of being silently stranded.
	Overloaded bool
}

// Serve distributes offeredRPS across the pool by capacity weights and
// reports the aggregate service quality. A pool with zero live capacity
// (every replica fully deflated or OOM-killed) returns an explicit
// overload result — the whole offered load counted as dropped — rather
// than dividing by zero or under-reporting the loss.
func (lb *LoadBalancer) Serve(envs []hypervisor.Env, offeredRPS float64) (ServeResult, error) {
	weights, err := lb.Weights(envs)
	if err != nil {
		return ServeResult{}, err
	}
	var res ServeResult
	res.PerServerRPS = make([]float64, len(lb.apps))
	var live float64
	for _, w := range weights {
		live += w
	}
	if live == 0 {
		res.Overloaded = true
		res.DroppedRPS = offeredRPS
		return res, nil
	}
	var latWeighted float64
	for i, a := range lb.apps {
		share := offeredRPS * weights[i]
		cap := a.CapacityRPS(envs[i])
		served := share
		if cap > 0 && served > cap*0.95 {
			served = cap * 0.95 // admission control at 95% utilization
		}
		res.PerServerRPS[i] = served
		res.ServedRPS += served
		res.DroppedRPS += share - served
		if served > 0 {
			latWeighted += served * a.LatencyMS(envs[i], served)
		}
	}
	if res.ServedRPS > 0 {
		res.MeanLatencyMS = latWeighted / res.ServedRPS
	}
	return res, nil
}
