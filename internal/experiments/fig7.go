package experiments

import (
	"context"
	"time"

	"deflation/internal/spark"
	"deflation/internal/spark/workloads"
	"deflation/internal/stats"
	"deflation/internal/sweep"
)

// fig7a reproduces Figure 7a: ALS normalized running time when 50%
// deflation arrives at different points of job progress, for
// self-deflation and VM-level deflation. Early in the job self wins
// (little to recompute); a crossover follows, and both overheads trend
// down as less of the job remains to run deflated. The shared baseline
// runs first, then one sweep cell per (mechanism, progress) point, each
// running its own ALS job.
func fig7a(o Options) (Result, error) {
	xs := []float64{20, 30, 40, 50, 60, 70}
	base, err := runBatch(workloads.ALS, nil)
	if err != nil {
		return nil, err
	}
	var rows []gridRow
	for _, m := range []spark.PressureMechanism{spark.PressureSelf, spark.PressureVMLevel} {
		rows = append(rows, gridRow{m.String(), func(progress float64) (float64, error) {
			run, err := runBatch(workloads.ALS, &spark.PressureSpec{
				AtProgress: progress / 100,
				Deflation:  jitteredDeflation(8, 0.5),
				Mechanism:  m,
			})
			if err != nil {
				return 0, err
			}
			return run / base, nil
		}})
	}
	ss, err := grid(o, "fig7a", xs, rows)
	if err != nil {
		return nil, err
	}
	return curves{{"Figure 7a: ALS deflated at different progress points (d=0.5)", "progress%", xs, ss}}, nil
}

// fig7bJob builds a CNN job long enough to span the 80-minute window.
func fig7bJob(ckpt bool) *spark.TrainingJob {
	j := workloads.CNN(ckpt)
	j.Iterations = 400 // 400 × 30 s = 200 min of work; window shows 80 min
	return j
}

// fig7b reproduces Figure 7b: CNN training throughput over an 80-minute
// window with transient resource pressure between minutes 10 and 40, for
// three deployments: baseline (no pressure, no checkpointing), deflation
// (VM-level, no checkpointing), and preemption (checkpointing always on;
// workers revoked during pressure). Each deployment is one sweep cell
// running its own training job start to finish; the timelines within a
// cell stay strictly sequential (virtual time), so the merged result is
// identical at any parallelism.
func fig7b(o Options) (Result, error) {
	const (
		pressureStart = 10 * time.Minute
		pressureEnd   = 40 * time.Minute
		window        = 80 * time.Minute
		deflation     = 0.5
	)

	record := func(ts *stats.TimeSeries, run *spark.TrainingRun) error {
		return ts.Add(time.Duration(run.ElapsedSecs()*float64(time.Second)), run.Throughput())
	}

	baselineCell := func(context.Context) (*stats.TimeSeries, error) {
		// Baseline: untouched, no checkpointing.
		ts := stats.NewTimeSeries("baseline records/s")
		base, err := spark.NewTrainingRun(fig7bJob(false))
		if err != nil {
			return ts, err
		}
		for base.ElapsedSecs() < window.Seconds() && !base.Done() {
			if err := base.Step(); err != nil {
				return ts, err
			}
			if err := record(ts, base); err != nil {
				return ts, err
			}
		}
		return ts, nil
	}

	deflationCell := func(context.Context) (*stats.TimeSeries, error) {
		// Deflation: all workers deflated 50% during the pressure window;
		// the job keeps running throughout.
		ts := stats.NewTimeSeries("deflation records/s")
		defl, err := spark.NewTrainingRun(fig7bJob(false))
		if err != nil {
			return ts, err
		}
		phase := 0 // 0 = before pressure, 1 = deflated, 2 = restored
		for defl.ElapsedSecs() < window.Seconds() && !defl.Done() {
			el := time.Duration(defl.ElapsedSecs() * float64(time.Second))
			if phase == 0 && el >= pressureStart {
				phase = 1
				for i := 0; i < 8; i++ {
					if err := defl.SetWorkerSpeed(i, 1-deflation); err != nil {
						return ts, err
					}
				}
			}
			if phase == 1 && el >= pressureEnd {
				phase = 2
				for i := 0; i < 8; i++ {
					if err := defl.SetWorkerSpeed(i, 1); err != nil {
						return ts, err
					}
				}
			}
			if err := defl.Step(); err != nil {
				return ts, err
			}
			if err := record(ts, defl); err != nil {
				return ts, err
			}
		}
		return ts, nil
	}

	preemptionCell := func(context.Context) (*stats.TimeSeries, error) {
		// Preemption: checkpointing always on; half the workers revoked at
		// the pressure start (throughput gap during restart), revived at
		// the end.
		ts := stats.NewTimeSeries("preemption records/s")
		pre, err := spark.NewTrainingRun(fig7bJob(true))
		if err != nil {
			return ts, err
		}
		prePhase := 0 // 0 = before pressure, 1 = revoked, 2 = revived
		for pre.ElapsedSecs() < window.Seconds() && !pre.Done() {
			el := time.Duration(pre.ElapsedSecs() * float64(time.Second))
			if prePhase == 0 && el >= pressureStart {
				prePhase = 1
				if err := record(ts, pre); err != nil { // last point before the gap
					return ts, err
				}
				if err := pre.KillWorkers(4); err != nil {
					return ts, err
				}
				// The restart gap: zero throughput while the job resubmits.
				if err := ts.Add(el, 0); err != nil {
					return ts, err
				}
			}
			if prePhase == 1 && el >= pressureEnd {
				prePhase = 2
				if err := pre.ReviveWorkers(4); err != nil {
					return ts, err
				}
			}
			if err := pre.Step(); err != nil {
				return ts, err
			}
			if err := record(ts, pre); err != nil {
				return ts, err
			}
		}
		return ts, nil
	}

	ts, err := runCells(o, "fig7b", []sweep.Cell[*stats.TimeSeries]{
		{Run: baselineCell}, {Run: deflationCell}, {Run: preemptionCell},
	})
	if err != nil {
		return nil, err
	}
	return timelines(ts), nil
}
