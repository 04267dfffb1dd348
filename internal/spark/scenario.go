package spark

import (
	"fmt"
	"math"
)

// PressureMechanism selects how a resource-pressure event is handled in a
// scenario run — the four series of Fig. 6.
type PressureMechanism int

const (
	// PressureVMLevel: OS+hypervisor deflation; executors slow down.
	PressureVMLevel PressureMechanism = iota
	// PressureSelf: the application kills tasks and blacklists executors.
	PressureSelf
	// PressurePreempt: today's clouds — the deflated share of VMs is
	// revoked outright (fail-stop).
	PressurePreempt
	// PressurePolicy: cascade deflation with the §4.1 policy choosing
	// between self and VM-level.
	PressurePolicy
)

// String names the mechanism as the paper's figure legends do.
func (m PressureMechanism) String() string {
	switch m {
	case PressureVMLevel:
		return "VM"
	case PressureSelf:
		return "Self"
	case PressurePreempt:
		return "Preemption"
	case PressurePolicy:
		return "Cascade"
	}
	return fmt.Sprintf("PressureMechanism(%d)", int(m))
}

// PressureSpec describes one resource-pressure event during a job.
type PressureSpec struct {
	// AtProgress triggers the event at the first stage boundary with
	// progress ≥ this fraction.
	AtProgress float64
	// Deflation is the per-worker deflation vector d.
	Deflation []float64
	// Mechanism handles the event.
	Mechanism PressureMechanism
	// Estimator configures the policy's r estimate (PressurePolicy only).
	Estimator Estimator
}

const (
	// batchRestartSecs is the job-restart overhead a batch job pays on
	// preemption.
	batchRestartSecs = 30
	// resubmitSecs is what an abruptly revoked training job pays for job
	// resubmission and input re-provisioning, on top of its checkpoint
	// restart.
	resubmitSecs = 300
)

// ScenarioResult reports a pressure-scenario run.
type ScenarioResult struct {
	Result
	// Chosen is the mechanism that actually handled the event (differs
	// from the spec only for PressurePolicy).
	Chosen PressureMechanism
	// Decision is the policy's estimate detail (PressurePolicy only).
	Decision Decision
	// Fired reports whether the pressure event triggered.
	Fired bool
}

// AddDelaySecs advances the engine clock without doing work (restart
// overheads and similar).
func (e *Engine) AddDelaySecs(secs float64) { e.nowSecs += secs }

// vmOvercommitIntensity calibrates the residual cost of VM-level deflation
// beyond the proportional CPU loss: executor heaps under memory pressure,
// fractional-core multiplexing, and interference. Measured VM-level task
// speed is (1-d)/(1+intensity·d).
const vmOvercommitIntensity = 0.8

// VMLevelSpeedFactor returns the per-slot task-speed factor of an executor
// whose VM is deflated by fraction d under OS+hypervisor (VM-level)
// deflation.
func VMLevelSpeedFactor(d float64) float64 {
	if d <= 0 {
		return 1
	}
	if d >= 1 {
		return 0.01
	}
	return (1 - d) / (1 + vmOvercommitIntensity*d)
}

// RunBatchScenario executes job on cluster, injecting the pressure event
// (if non-nil) at its progress point. The cluster and engine must be fresh.
func RunBatchScenario(cluster *Cluster, job *BatchJob, p *PressureSpec) (ScenarioResult, error) {
	eng, err := NewEngine(cluster, job)
	if err != nil {
		return ScenarioResult{}, err
	}
	var out ScenarioResult
	var hookErr error
	hook := func(progress float64, e *Engine) {
		if p == nil || out.Fired || progress < p.AtProgress || progress >= 1 {
			return
		}
		out.Fired = true
		out.Chosen, out.Decision, hookErr = ApplyPressure(e, cluster, job, *p)
	}
	res, err := eng.Run(hook)
	if err != nil {
		return out, err
	}
	if hookErr != nil {
		return out, hookErr
	}
	out.Result = res
	return out, nil
}

// ApplyPressure applies one pressure event to a running engine, returning
// the mechanism actually used.
func ApplyPressure(e *Engine, cluster *Cluster, job *BatchJob, p PressureSpec) (PressureMechanism, Decision, error) {
	mech := p.Mechanism
	var dec Decision
	if mech == PressurePolicy {
		victims := ChooseVictims(cluster, p.Deflation)
		dagFrac := 0.0
		if total := job.TotalPlannedWork(); total > 0 {
			dagFrac = e.EstimateRecomputeWork(victims) / total
		}
		var err error
		dec, err = Decide(PolicyInputs{
			Progress:             e.Progress(),
			Deflation:            p.Deflation,
			ShuffleFraction:      e.MeasuredShuffleFraction(),
			NextStageIsShuffle:   e.NextStageIsShuffle(),
			DAGRecomputeFraction: dagFrac,
		}, p.Estimator)
		if err != nil {
			return mech, dec, err
		}
		if dec.Mechanism == MechSelf {
			mech = PressureSelf
		} else {
			mech = PressureVMLevel
		}
	}

	switch mech {
	case PressureVMLevel:
		factors := make(map[string]float64)
		execs := cluster.Executors()
		for i, d := range p.Deflation {
			if i >= len(execs) {
				break
			}
			factors[execs[i].ID] = VMLevelSpeedFactor(d)
		}
		cluster.SetSpeed(factors)
	case PressureSelf:
		e.Blacklist(ChooseVictims(cluster, p.Deflation))
	case PressurePreempt:
		e.Blacklist(ChooseVictims(cluster, p.Deflation))
		e.AddDelaySecs(batchRestartSecs)
	default:
		return mech, dec, fmt.Errorf("spark: unknown pressure mechanism %d", int(mech))
	}
	return mech, dec, nil
}

// RunTrainingScenario executes a training job with a pressure event at the
// given progress, handled by the chosen mechanism. For training, the policy
// always prefers VM-level deflation: killing any worker of a synchronous
// job forces a checkpoint restart, i.e. r ≈ 1 (§4.1, §6.2).
func RunTrainingScenario(job *TrainingJob, p *PressureSpec) (float64, PressureMechanism, error) {
	run, err := NewTrainingRun(job)
	if err != nil {
		return 0, 0, err
	}
	mech := PressureVMLevel
	if p != nil {
		mech = p.Mechanism
	}
	fired := false
	var hookErr error
	hook := func(progress float64, r *TrainingRun) {
		if p == nil || fired || progress < p.AtProgress || r.Done() {
			return
		}
		fired = true
		m := p.Mechanism
		if m == PressurePolicy {
			// Synchronous training: task kill restarts the whole job, so
			// the estimated T_self always exceeds T_vm; choose VM-level.
			m = PressureVMLevel
		}
		mech = m
		switch m {
		case PressureVMLevel:
			for i, d := range p.Deflation {
				if d <= 0 {
					continue
				}
				if err := r.SetWorkerSpeed(i, 1-d); err != nil {
					hookErr = err
					return
				}
			}
		case PressureSelf, PressurePreempt:
			var sum float64
			for _, d := range p.Deflation {
				sum += d
			}
			if err := r.KillWorkers(int(math.Round(sum))); err != nil {
				hookErr = err
				return
			}
			if m == PressurePreempt {
				r.AddDelaySecs(resubmitSecs)
			}
		}
	}
	elapsed, err := run.Run(hook)
	if err != nil {
		return elapsed, mech, err
	}
	return elapsed, mech, hookErr
}
