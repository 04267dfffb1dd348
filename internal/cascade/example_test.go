package cascade_test

import (
	"fmt"
	"log"

	"deflation/internal/apps/curveapp"
	"deflation/internal/cascade"
	"deflation/internal/guestos"
	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
	"deflation/internal/vm"
)

// Example shows a full cascade deflation of a memory-elastic application:
// the application gives up what its sizing policy allows, the guest OS
// hot-unplugs the freed (and free) memory, and the hypervisor reclaims the
// rest.
func Example() {
	host, err := hypervisor.NewHost(hypervisor.Config{
		Name: "host-0", Capacity: restypes.V(16, 65536, 1600, 5000),
	})
	if err != nil {
		log.Fatal(err)
	}
	size := restypes.V(4, 16384, 400, 1250)
	dom, err := host.CreateDomain("demo", size, guestos.Config{})
	if err != nil {
		log.Fatal(err)
	}
	dom.MarkWarm()

	app := curveapp.New(curveapp.Config{Size: size, Elastic: true})
	v, err := vm.New(dom, app, vm.Config{})
	if err != nil {
		log.Fatal(err)
	}

	ctrl := cascade.New(cascade.AllLevels())
	var rep cascade.Report
	if err := ctrl.Deflate(v, size.Scale(0.5), &rep); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("application freed %.0f MB\n", rep.App.Reclaimed.MemoryMB)
	fmt.Printf("guest unplugged %.0f CPUs\n", rep.OS.Reclaimed.CPU)
	fmt.Printf("allocation now %v\n", rep.NewAllocation)

	if err := ctrl.Reinflate(v, size.Scale(0.5), &cascade.Report{}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored to %v\n", v.Allocation())
	// Output:
	// application freed 3661 MB
	// guest unplugged 2 CPUs
	// allocation now {cpu:2 mem:8192MB disk:200MB/s net:625MB/s}
	// restored to {cpu:4 mem:16384MB disk:400MB/s net:1250MB/s}
}
