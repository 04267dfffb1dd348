package substrate_test

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"deflation/internal/guestos"
	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
	"deflation/internal/simcg"
	"deflation/internal/substrate"
)

func TestTableKeepsNameOrder(t *testing.T) {
	var tb substrate.Table[int]
	if tb.Len() != 0 || len(tb.Ordered()) != 0 {
		t.Fatalf("zero table not empty: len %d, ordered %v", tb.Len(), tb.Ordered())
	}
	for i, name := range []string{"vm-20", "vm-03", "vm-11", "a", "vm-1"} {
		tb.Put(name, i)
	}
	if got, want := tb.Ordered(), []int{3, 1, 4, 2, 0}; !slices.Equal(got, want) {
		t.Errorf("ordered = %v, want %v (a, vm-03, vm-1, vm-11, vm-20)", got, want)
	}
	if v, ok := tb.Get("vm-11"); !ok || v != 2 {
		t.Errorf("Get(vm-11) = %d, %v", v, ok)
	}
	if v, ok := tb.Get("vm-12"); ok || v != 0 {
		t.Errorf("Get of a missing name = %d, %v", v, ok)
	}
}

func TestTableDuplicatePutReplaces(t *testing.T) {
	var tb substrate.Table[string]
	tb.Put("b", "old")
	tb.Put("a", "a")
	tb.Put("b", "new")
	if tb.Len() != 2 {
		t.Fatalf("len = %d after a duplicate Put, want 2", tb.Len())
	}
	if got := tb.Ordered(); !slices.Equal(got, []string{"a", "new"}) {
		t.Errorf("ordered = %v", got)
	}
}

func TestTableDeleteMissingIsNoOp(t *testing.T) {
	var tb substrate.Table[int]
	tb.Delete("ghost") // empty table
	tb.Put("a", 1)
	tb.Delete("ghost")
	if got := tb.Ordered(); tb.Len() != 1 || !slices.Equal(got, []int{1}) {
		t.Errorf("deleting a missing name changed the table: len %d, %v", tb.Len(), got)
	}
}

// TestTableWritesInPlace pins the table's contract: Put and Delete write
// the arrays in place, so replacing an entry, and deleting one and putting
// it back, allocate nothing once the table has grown.
func TestTableWritesInPlace(t *testing.T) {
	var tb substrate.Table[int]
	for i := 0; i < 5; i++ {
		tb.Put(fmt.Sprintf("vm-%d", i), i)
	}
	if allocs := testing.AllocsPerRun(100, func() { tb.Put("vm-2", 99) }); allocs != 0 {
		t.Errorf("a replacing Put allocates %.0f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		tb.Delete("vm-1")
		tb.Put("vm-1", 1)
	}); allocs != 0 {
		t.Errorf("Delete and a re-Put allocate %.0f times, want 0", allocs)
	}
	if got := tb.Ordered(); !slices.Equal(got, []int{0, 1, 99, 3, 4}) {
		t.Errorf("ordered = %v", got)
	}
}

// FuzzOrderedTable drives a Table and the structure it replaced — a map
// sorted on read — with the same script and requires the same answers after
// every step.
func FuzzOrderedTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 1, 1, 2, 2, 1})
	f.Add([]byte{0, 9, 0, 3, 0, 7, 1, 3, 1, 3, 0, 3, 2, 9})
	f.Fuzz(func(t *testing.T, script []byte) {
		var tb substrate.Table[int]
		ref := map[string]int{}
		refOrdered := func() []int {
			names := make([]string, 0, len(ref))
			for n := range ref {
				names = append(names, n)
			}
			sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
			out := make([]int, len(names))
			for i, n := range names {
				out[i] = ref[n]
			}
			return out
		}
		for step := 0; step+1 < len(script); step += 2 {
			// 24 names over three lengths, so inserts land at the front,
			// the back and in the middle and collide often.
			k := script[step+1] % 24
			name := fmt.Sprintf("vm-%0*d", 1+int(k%3), k)
			switch script[step] % 3 {
			case 0:
				tb.Put(name, step)
				ref[name] = step
			case 1:
				tb.Delete(name)
				delete(ref, name)
			case 2:
				got, ok := tb.Get(name)
				want, wantOK := ref[name]
				if got != want || ok != wantOK {
					t.Fatalf("step %d: Get(%q) = %d, %v; reference %d, %v", step, name, got, ok, want, wantOK)
				}
			}
			want := refOrdered()
			if got := tb.Ordered(); !slices.Equal(got, want) || tb.Len() != len(want) {
				t.Fatalf("step %d: ordered = %v (len %d), reference %v", step, got, tb.Len(), want)
			}
		}
	})
}

// TestFreePhysicalDoesNotAllocate pins what the table is for: reading a
// host's free capacity — done on every SetAllocation and after every
// deflation — walks the instances in name order without building or sorting
// anything.
func TestFreePhysicalDoesNotAllocate(t *testing.T) {
	capacity := restypes.V(64, 262144, 4000, 4000)
	hv, err := hypervisor.NewHost(hypervisor.Config{Name: "hv", Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	cg, err := simcg.NewHost(simcg.Config{Name: "cg", Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	for _, host := range []substrate.Substrate{hv, cg} {
		for i := 0; i < 40; i++ {
			if _, err := host.Spawn(fmt.Sprintf("vm-%02d", i), restypes.V(1, 2048, 10, 10), guestos.Config{}); err != nil {
				t.Fatal(err)
			}
		}
		var free restypes.Vector
		allocs := testing.AllocsPerRun(100, func() { free = host.FreePhysical() })
		if allocs != 0 {
			t.Errorf("%s: FreePhysical allocates %.0f times per call, want 0", host.Kind(), allocs)
		}
		if want := restypes.V(24, 262144-40*2048, 3600, 3600); free != want {
			t.Errorf("%s: free = %v, want %v", host.Kind(), free, want)
		}
	}
}
