package placement

import (
	"testing"

	"idde/internal/model"
	"idde/internal/radio"
	"idde/internal/rng"
	"idde/internal/topology"
	"idde/internal/workload"
)

// TestDeliverEmptyServersProposesNothing pins the nil-vs-empty rule of
// DeliverySpec.Servers: nil proposes every server, an empty non-nil list
// proposes none — the case of a repair with every server down.
func TestDeliverEmptyServersProposesNothing(t *testing.T) {
	s := rng.New(7)
	top, err := topology.Generate(topology.DefaultGen(8, 40, 1.0), s.Split("top"))
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.Generate(workload.DefaultGen(4), 8, 40, s.Split("wl"))
	if err != nil {
		t.Fatal(err)
	}
	in, err := model.New(top, wl, radio.Default())
	if err != nil {
		t.Fatal(err)
	}
	alloc := model.NewAllocation(in.M())
	for j := range alloc {
		if vs := in.Top.Coverage[j]; len(vs) > 0 {
			alloc[j] = model.Alloc{Server: vs[0], Channel: j % in.Top.Servers[vs[0]].Channels}
		}
	}
	run := func(servers []int) Result {
		return Deliver(DeliverySpec{In: in, Alloc: alloc, Delivery: model.NewDelivery(in.N(), in.K()), Servers: servers})
	}
	if res := run([]int{}); res.Evaluations != 0 || len(res.Chosen) != 0 {
		t.Fatalf("Servers: []int{} ran %d evaluations and chose %d replicas, want 0 and 0", res.Evaluations, len(res.Chosen))
	}
	if res := run(nil); res.Evaluations == 0 || len(res.Chosen) == 0 {
		t.Fatalf("Servers: nil ran %d evaluations and chose %d replicas, want every server proposed", res.Evaluations, len(res.Chosen))
	}
}
