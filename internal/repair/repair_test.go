package repair

import (
	"math"
	"testing"

	"idde/internal/core"
	"idde/internal/des"
	"idde/internal/graph"
	"idde/internal/model"
	"idde/internal/radio"
	"idde/internal/rng"
	"idde/internal/topology"
	"idde/internal/units"
	"idde/internal/workload"
)

func genInstance(t *testing.T, n, m, k int, seed uint64) *model.Instance {
	t.Helper()
	s := rng.New(seed)
	top, err := topology.Generate(topology.DefaultGen(n, m, 1.0), s.Split("top"))
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	wl, err := workload.Generate(workload.DefaultGen(k), n, m, s.Split("wl"))
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	in, err := model.New(top, wl, radio.Default())
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	return in
}

// failServers degrades in by taking the listed servers down.
func failServers(t *testing.T, in *model.Instance, fs ...int) *model.Instance {
	t.Helper()
	deg, err := Degrade(in, Degradation{FailedServers: fs})
	if err != nil {
		t.Fatalf("degrade %v: %v", fs, err)
	}
	return deg
}

// displacedUsers lists the users st allocates to a server that is down
// in deg or no longer covers them; strandedUsers counts those of them
// left with no surviving coverage at all.
func displacedUsers(deg *model.Instance, st model.Strategy) []int {
	var out []int
	for j, a := range st.Alloc {
		if a.Allocated() && (deg.Top.Servers[a.Server].Failed || !deg.Top.Covers(a.Server, j)) {
			out = append(out, j)
		}
	}
	return out
}

func strandedUsers(deg *model.Instance, st model.Strategy) int {
	n := 0
	for _, j := range displacedUsers(deg, st) {
		if len(deg.Top.Coverage[j]) == 0 {
			n++
		}
	}
	return n
}

// busiestServer finds the server with the most allocated users.
func busiestServer(in *model.Instance, st model.Strategy) int {
	counts := make([]int, in.N())
	for _, a := range st.Alloc {
		if a.Allocated() {
			counts[a.Server]++
		}
	}
	best := 0
	for i, c := range counts {
		if c > counts[best] {
			best = i
		}
	}
	return best
}

func TestFailServerDegradesInstance(t *testing.T) {
	in := genInstance(t, 12, 80, 4, 1)
	deg := failServers(t, in, 3)
	if !deg.Top.Servers[3].Failed {
		t.Error("server not marked failed")
	}
	if deg.Wl.Capacity[3] != 0 {
		t.Error("failed server kept capacity")
	}
	for j := 0; j < deg.M(); j++ {
		for _, i := range deg.Top.Coverage[j] {
			if i == 3 {
				t.Fatalf("failed server still covers user %d", j)
			}
		}
	}
	if deg.Top.Net.Degree(3) != 0 {
		t.Error("failed server kept wired links")
	}
	// Original instance untouched.
	if in.Top.Servers[3].Failed || in.Wl.Capacity[3] == 0 {
		t.Error("Degrade mutated the healthy instance")
	}
}

func TestFailServerValidation(t *testing.T) {
	in := genInstance(t, 10, 40, 3, 2)
	for _, f := range []int{-1, 10, 99} {
		if _, err := Degrade(in, Degradation{FailedServers: []int{f}}); err == nil {
			t.Errorf("unknown server %d accepted", f)
		}
	}
	// Failing an already-failed server again is tolerated and changes
	// nothing, so cumulative fault sets can be replayed.
	deg := failServers(t, in, 0)
	again := failServers(t, deg, 0)
	for i := 0; i < in.N(); i++ {
		if again.Top.Servers[i].Failed != (i == 0) || again.Wl.Capacity[i] != deg.Wl.Capacity[i] {
			t.Fatalf("re-failing server 0 changed server %d", i)
		}
	}
	if again.Top.Net.M() != deg.Top.Net.M() {
		t.Errorf("re-failing server 0 changed the wired links: %d vs %d", again.Top.Net.M(), deg.Top.Net.M())
	}
}

func TestRepairProducesValidEffectiveStrategy(t *testing.T) {
	in := genInstance(t, 15, 120, 4, 3)
	st := core.Solve(in, core.DefaultOptions()).Strategy
	f := busiestServer(in, st)
	deg := failServers(t, in, f)
	repaired, _, err := RepairDegraded(in, deg, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := deg.Check(repaired); err != nil {
		t.Fatalf("repaired strategy invalid: %v", err)
	}
	if len(displacedUsers(deg, st)) == 0 {
		t.Error("busiest server had no users?")
	}
	// No user remains on the failed server.
	for j, a := range repaired.Alloc {
		if a.Allocated() && a.Server == f {
			t.Fatalf("user %d still on failed server", j)
		}
	}
	// Displaced but coverable users were re-homed.
	rehomed := repaired.Alloc.AllocatedCount()
	stranded := strandedUsers(deg, st)
	if rehomed+stranded < st.Alloc.AllocatedCount() {
		t.Errorf("users went missing: %d rehomed + %d stranded < %d before",
			rehomed, stranded, st.Alloc.AllocatedCount())
	}
	// The degraded system is worse than healthy, but far better than
	// unrepaired (TestRepairBeatsNaiveDegradation).
	rateBefore, _ := in.Evaluate(st)
	rateAfter, latAfter := deg.Evaluate(repaired)
	if float64(rateAfter) > float64(rateBefore)*1.2 {
		t.Errorf("rate improved after failure?! %v -> %v", rateBefore, rateAfter)
	}
	if rateAfter <= 0 || latAfter < 0 {
		t.Errorf("repaired system degenerate: rate %v, latency %v", rateAfter, latAfter)
	}
	// A from-scratch re-solve on the degraded system does at least
	// roughly as well as the incremental repair.
	fresh, _ := deg.Evaluate(core.Solve(deg, core.DefaultOptions()).Strategy)
	if float64(fresh) < 0.9*float64(rateAfter) {
		t.Errorf("fresh solve rate %v far below repair %v", fresh, rateAfter)
	}
}

// TestRepairCompoundFailure takes three servers down at once, then a
// fourth on top: a compound failure never raises the average rate, and
// each repaired strategy passes Check on its degraded instance.
func TestRepairCompoundFailure(t *testing.T) {
	in := genInstance(t, 15, 100, 4, 33)
	st := core.Solve(in, core.DefaultOptions()).Strategy
	deg := failServers(t, in, 2, 5, 9)
	repaired, _, err := RepairDegraded(in, deg, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := deg.Check(repaired); err != nil {
		t.Fatalf("repaired strategy invalid: %v", err)
	}
	before, _ := in.Evaluate(st)
	after, _ := deg.Evaluate(repaired)
	if after > before+1e-9 {
		t.Errorf("rate rose after a triple failure: %v -> %v", before, after)
	}
	deg2 := failServers(t, deg, 0)
	repaired2, _, err := RepairDegraded(deg, deg2, repaired, Options{})
	if err != nil {
		t.Fatalf("repair after the compound failure: %v", err)
	}
	if err := deg2.Check(repaired2); err != nil {
		t.Fatalf("strategy repaired after the fourth failure invalid: %v", err)
	}
	if after2, _ := deg2.Evaluate(repaired2); after2 > after+1e-9 {
		t.Errorf("rate rose after a fourth failure: %v -> %v", after, after2)
	}
}

func TestRepairBeatsNaiveDegradation(t *testing.T) {
	in := genInstance(t, 15, 120, 4, 5)
	st := core.Solve(in, core.DefaultOptions()).Strategy
	f := busiestServer(in, st)
	deg := failServers(t, in, f)
	repaired, _, err := RepairDegraded(in, deg, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Naive: drop the failed server's users and replicas, change
	// nothing else.
	naiveAlloc := st.Alloc.Clone()
	for j, a := range naiveAlloc {
		if a.Allocated() && a.Server == f {
			naiveAlloc[j] = model.Unallocated
		}
	}
	naiveDeliv := model.NewDelivery(deg.N(), deg.K())
	for i := 0; i < deg.N(); i++ {
		if i == f {
			continue
		}
		for k := 0; k < deg.K(); k++ {
			if st.Delivery.Placed(i, k) {
				naiveDeliv.Place(i, k, deg.Wl.Items[k].Size)
			}
		}
	}
	naiveRate, naiveLat := deg.Evaluate(model.Strategy{Alloc: naiveAlloc, Delivery: naiveDeliv, Mode: st.Mode})
	repRate, repLat := deg.Evaluate(repaired)
	if float64(repRate) < float64(naiveRate)-1e-9 {
		t.Errorf("repair rate %v below naive %v", repRate, naiveRate)
	}
	if float64(repLat) > float64(naiveLat)+1e-9 {
		t.Errorf("repair latency %v above naive %v", repLat, naiveLat)
	}
	// Repair must strictly help on at least one axis (it re-homes
	// users who otherwise idle at zero rate).
	if math.Abs(float64(repRate-naiveRate)) < 1e-12 && math.Abs(float64(repLat-naiveLat)) < 1e-12 {
		t.Error("repair achieved nothing over naive degradation")
	}
}

func TestRepairOnPartitionedNetwork(t *testing.T) {
	// Density 1.0 networks often have cut vertices; failing one must
	// still work (cloud fallback for unreachable pairs). Find a cut
	// vertex if any exists; otherwise any server exercises the path.
	in := genInstance(t, 12, 60, 3, 7)
	st := core.Solve(in, core.DefaultOptions()).Strategy
	for f := 0; f < in.N(); f++ {
		deg := failServers(t, in, f)
		repaired, _, err := RepairDegraded(in, deg, st, Options{})
		if err != nil {
			t.Fatalf("repair %d: %v", f, err)
		}
		if err := deg.Check(repaired); err != nil {
			t.Fatalf("repair %d invalid: %v", f, err)
		}
	}
}

// Failing every server, one at a time down to the last survivor and
// then the last survivor itself, must degrade gracefully to all-cloud
// service instead of erroring.
func TestFailLastSurvivingServer(t *testing.T) {
	in := genInstance(t, 4, 30, 3, 11)
	st := core.Solve(in, core.DefaultOptions()).Strategy
	cur, curSt := in, st
	for f := 0; f < in.N(); f++ {
		deg := failServers(t, cur, f)
		repaired, _, err := RepairDegraded(cur, deg, curSt, Options{})
		if err != nil {
			t.Fatalf("repair after failing %d: %v", f, err)
		}
		if err := deg.Check(repaired); err != nil {
			t.Fatalf("repaired strategy invalid after failing %d: %v", f, err)
		}
		// Every intermediate system still runs on the simulator.
		sim := des.Simulate(deg, repaired, des.SimOptions{Spread: 5}, rng.New(uint64(f)))
		if sim.Events == 0 || math.IsNaN(float64(sim.Avg)) || math.IsInf(float64(sim.Avg), 0) {
			t.Fatalf("simulation after failing %d degenerate: %d events, avg %v", f, sim.Events, sim.Avg)
		}
		cur, curSt = deg, repaired
	}
	// All servers down: everyone is unallocated and every request is
	// served from the cloud at exactly the cloud latency.
	for j, a := range curSt.Alloc {
		if a.Allocated() {
			t.Fatalf("user %d still allocated with every server down", j)
		}
	}
	rate, lat := cur.Evaluate(curSt)
	if rate != 0 {
		t.Errorf("all-failed system has rate %v", rate)
	}
	var cloudTotal float64
	n := 0
	for _, items := range cur.Wl.Requests {
		for _, k := range items {
			cloudTotal += float64(cur.CloudLatency(k))
			n++
		}
	}
	wantAvg := cloudTotal / float64(n)
	if diff := float64(lat) - wantAvg; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("all-failed latency %v != all-cloud %v", float64(lat), wantAvg)
	}
}

// Failing a server whose removal partitions the wired graph must not
// error: unreachable pairs fall back to the cloud per Eq. 8. A line
// topology makes every interior server a cut vertex, so this test
// guarantees the partition path is exercised (the random-topology loop
// in TestRepairOnPartitionedNetwork only does so probabilistically).
func TestFailCutVertexPartitionsGracefully(t *testing.T) {
	in := genInstance(t, 8, 50, 3, 13)
	// Rebuild the wired net as a line 0-1-2-...-7; server 3 is a cut
	// vertex whose removal splits {0,1,2} from {4,...,7}.
	top := &topology.Topology{
		Region:    in.Top.Region,
		Servers:   append([]topology.Server(nil), in.Top.Servers...),
		Users:     append([]topology.User(nil), in.Top.Users...),
		CloudRate: in.Top.CloudRate,
	}
	top.Net = graph.New(in.N())
	for i := 0; i+1 < in.N(); i++ {
		top.Net.AddEdge(i, i+1, units.PerMB(3000))
	}
	if err := top.Finalize(); err != nil {
		t.Fatal(err)
	}
	lin, err := model.New(top, in.Wl, in.Radio)
	if err != nil {
		t.Fatal(err)
	}
	st := core.Solve(lin, core.DefaultOptions()).Strategy
	deg := failServers(t, lin, 3)
	if !math.IsInf(float64(deg.Top.PathCost[0][7]), 1) {
		t.Error("expected servers 0 and 7 to be disconnected")
	}
	repaired, _, err := RepairDegraded(lin, deg, st, Options{})
	if err != nil {
		t.Fatalf("repair across a partition errored: %v", err)
	}
	if err := deg.Check(repaired); err != nil {
		t.Fatalf("repaired strategy invalid: %v", err)
	}
	// Latency stays finite: cross-partition requests fall back to the
	// cloud instead of riding an infinite path cost.
	_, lat := deg.Evaluate(repaired)
	if math.IsInf(float64(lat), 0) {
		t.Error("partitioned system evaluated to infinite latency")
	}
}

func TestDegradeCompound(t *testing.T) {
	in := genInstance(t, 10, 60, 3, 15)
	edges := in.Top.Net.Edges()
	deg, err := Degrade(in, Degradation{
		FailedServers: []int{1, 2},
		CutLinks:      [][2]int{{edges[0].U, edges[0].V}},
		CloudFactor:   0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !deg.Top.Servers[1].Failed || !deg.Top.Servers[2].Failed {
		t.Error("servers not failed")
	}
	if got, want := float64(deg.Top.CloudRate), float64(in.Top.CloudRate)*0.5; got != want {
		t.Errorf("brownout cloud rate %v, want %v", got, want)
	}
	if deg.Top.Net.HasEdge(edges[0].U, edges[0].V) && !deg.Top.Servers[edges[0].U].Failed && !deg.Top.Servers[edges[0].V].Failed {
		t.Error("cut link survived")
	}
	// Degrading again with the same set is idempotent-tolerant.
	if _, err := Degrade(deg, Degradation{FailedServers: []int{1}}); err != nil {
		t.Errorf("re-degrading an already-failed server errored: %v", err)
	}
	// Validation still bites.
	if _, err := Degrade(in, Degradation{FailedServers: []int{99}}); err == nil {
		t.Error("unknown server accepted")
	}
	if _, err := Degrade(in, Degradation{CutLinks: [][2]int{{0, 0}}}); err == nil {
		t.Error("self-loop cut accepted")
	}
	if _, err := Degrade(in, Degradation{CloudFactor: 1.5}); err == nil {
		t.Error("cloud factor > 1 accepted")
	}
}

func TestFailServersValidation(t *testing.T) {
	in := genInstance(t, 6, 30, 3, 17)
	if _, err := Degrade(in, Degradation{FailedServers: []int{0, 9}}); err == nil {
		t.Error("out-of-range id accepted")
	}
	// A duplicate id fails that server once; replaying an already-failed
	// id on the degraded instance is a no-op.
	pair := failServers(t, in, 0, 1)
	for _, deg := range []*model.Instance{failServers(t, in, 0, 1, 1), failServers(t, pair, 1)} {
		for i := 0; i < in.N(); i++ {
			if deg.Top.Servers[i].Failed != pair.Top.Servers[i].Failed {
				t.Fatalf("server %d failed=%v, want %v", i, deg.Top.Servers[i].Failed, pair.Top.Servers[i].Failed)
			}
		}
		if deg.Top.Net.M() != pair.Top.Net.M() {
			t.Errorf("%d wired links, want %d", deg.Top.Net.M(), pair.Top.Net.M())
		}
	}
}

// Property: repair is deterministic under a fixed seed and idempotent —
// repairing an already-repaired strategy with no new failure makes zero
// moves and places zero replicas, leaving the strategy unchanged.
func TestRepairDeterministicAndIdempotent(t *testing.T) {
	for seed := uint64(21); seed < 26; seed++ {
		in := genInstance(t, 12, 80, 4, seed)
		st := core.Solve(in, core.DefaultOptions()).Strategy
		f := busiestServer(in, st)
		deg := failServers(t, in, f)
		r1, rep1, err := RepairDegraded(in, deg, st, Options{})
		if err != nil {
			t.Fatal(err)
		}
		r2, rep2, err := RepairDegraded(in, deg, st, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if *rep1 != *rep2 {
			t.Fatalf("seed %d: repair reports differ: %+v vs %+v", seed, rep1, rep2)
		}
		for j := range r1.Alloc {
			if r1.Alloc[j] != r2.Alloc[j] {
				t.Fatalf("seed %d: allocations differ at user %d", seed, j)
			}
		}
		// Idempotence: re-repair with no new failure.
		r3, rep3, err := RepairDegraded(deg, deg, r1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rep3.Moves != 0 || rep3.ReplacedReplicas != 0 || rep3.LostReplicas != 0 {
			t.Fatalf("seed %d: re-repair did work: %+v", seed, rep3)
		}
		for j := range r1.Alloc {
			if r1.Alloc[j] != r3.Alloc[j] {
				t.Fatalf("seed %d: idempotent repair moved user %d", seed, j)
			}
		}
		for i := 0; i < deg.N(); i++ {
			for k := 0; k < deg.K(); k++ {
				if r1.Delivery.Placed(i, k) != r3.Delivery.Placed(i, k) {
					t.Fatalf("seed %d: idempotent repair changed replica (%d,%d)", seed, i, k)
				}
			}
		}
	}
}

func TestRepairDeterministic(t *testing.T) {
	in := genInstance(t, 12, 80, 3, 9)
	st := core.Solve(in, core.DefaultOptions()).Strategy
	deg := failServers(t, in, 2)
	_, a, err := RepairDegraded(in, deg, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := RepairDegraded(in, deg, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Error("repair not deterministic")
	}
}
