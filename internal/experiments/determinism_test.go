package experiments

import (
	"reflect"
	"testing"
)

// TestSweepDeterminism proves every figure is bit-for-bit deterministic
// under parallelism: a serial, uncached run equals the figure's shared
// 8-worker run, result (reflect.DeepEqual) and table alike.
func TestSweepDeterminism(t *testing.T) {
	for _, f := range Figures() {
		t.Run(testName(f), func(t *testing.T) {
			serial, err := f.Run(Options{Quick: true, Workers: 1})
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			par := quick(t, f.Name)
			if !reflect.DeepEqual(serial, par) {
				t.Errorf("results differ between serial and 8-way parallel runs:\nserial:   %#v\nparallel: %#v", serial, par)
			}
			if serial.Table() != par.Table() {
				t.Errorf("tables differ between serial and 8-way parallel runs:\n--- serial ---\n%s\n--- parallel ---\n%s", serial.Table(), par.Table())
			}
		})
	}
}

// TestMemoizationPreservesResults proves the cross-sweep cache never
// changes a figure's output, only its wall-clock: a rerun served entirely
// from the warm cache equals the run that filled it, which
// TestSweepDeterminism proves equal to an uncached serial run.
func TestMemoizationPreservesResults(t *testing.T) {
	for _, f := range Figures() {
		t.Run(testName(f), func(t *testing.T) {
			first := quickRunOf(t, f.Name)
			if first.lookups == 0 {
				t.Skip("no memoizable cells")
			}
			_, hits, misses := quickCache.Stats()
			cached, err := f.Run(Options{Quick: true, Workers: 8, Cache: quickCache})
			if err != nil {
				t.Fatal(err)
			}
			_, hits2, misses2 := quickCache.Stats()
			if misses2 != misses || hits2-hits != first.lookups {
				t.Errorf("warm rerun: %d of %d lookups hit, want all", hits2-hits, first.lookups)
			}
			if !reflect.DeepEqual(first.res, cached) {
				t.Errorf("memoization changed the result:\nfirst:  %#v\ncached: %#v", first.res, cached)
			}
			if first.res.Table() != cached.Table() {
				t.Errorf("memoization changed the table:\n%s\nvs\n%s", first.res.Table(), cached.Table())
			}
		})
	}
}
