//go:build race

package cluster

// The race detector allocates on its own account: TestSimAllocBudget reads
// 7.4 allocs/event under -race against 6.8 without, and 8.2 against 7.6 with
// one closure per admission.
func init() { raceAllocAllowance = 0.6 }
