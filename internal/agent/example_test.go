package agent_test

import (
	"fmt"
	"log"
	"net/http/httptest"

	"deflation/internal/agent"
	"deflation/internal/apps/memcache"
	"deflation/internal/cascade"
	"deflation/internal/guestos"
	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
	"deflation/internal/vm"
)

// ExampleRemoteApp serves a deflation-aware memcached behind its deflation
// agent (§5's REST protocol), attaches it to a VM through the RemoteApp
// proxy, and cascade-deflates over the wire: the VM's controller knows only
// the agent's URL, so level 1 of the cascade crosses the network.
func ExampleRemoteApp() {
	app, err := memcache.NewApp(memcache.AppConfig{
		CacheMB: 8000, DatasetMB: 9000, DeflationAware: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := agent.NewServer(app)
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	remote, err := agent.NewRemoteApp(ts.URL)
	if err != nil {
		log.Fatal(err)
	}
	host, err := hypervisor.NewHost(hypervisor.Config{
		Name: "host-0", Capacity: restypes.V(16, 65536, 1600, 5000),
	})
	if err != nil {
		log.Fatal(err)
	}
	dom, err := host.CreateDomain("live-vm", restypes.V(4, 16384, 400, 1250), guestos.Config{})
	if err != nil {
		log.Fatal(err)
	}
	dom.MarkWarm()
	v, err := vm.New(dom, remote, vm.Config{})
	if err != nil {
		log.Fatal(err)
	}
	st, err := remote.Status()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("remote app %q: rss %.0f MB\n", st.Name, st.RSSMB)

	target := restypes.V(2, 10000, 100, 300)
	var rep cascade.Report
	err = cascade.New(cascade.AllLevels()).Deflate(v, target, &rep)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("application (over HTTP): relinquished %.0f MB\n", rep.App.Reclaimed.MemoryMB)
	fmt.Printf("guest OS: unplugged %.0f cores, %.0f MB\n", rep.OS.Reclaimed.CPU, rep.OS.Reclaimed.MemoryMB)
	fmt.Printf("hypervisor: overcommitted %.0f MB\n", rep.Hyp.Reclaimed.MemoryMB)
	fmt.Printf("server-side cache resized to %.0f MB, hit rate %.3f\n", app.CacheMB(), app.HitRate())

	if err := cascade.New(cascade.AllLevels()).Reinflate(v, target, &cascade.Report{}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reinflated: cache back to %.0f MB\n", app.CacheMB())
	// Output:
	// remote app "memcached": rss 8300 MB
	// application (over HTTP): relinquished 2300 MB
	// guest OS: unplugged 2 cores, 9318 MB
	// hypervisor: overcommitted 682 MB
	// server-side cache resized to 5700 MB, hit rate 0.977
	// reinflated: cache back to 8000 MB
}
