package repair

import (
	"testing"

	"idde/internal/core"
	"idde/internal/model"
	"idde/internal/rng"
)

// randDegradation draws a compound fault state: one or two servers
// down, up to two wired links cut, and an occasional cloud brownout.
func randDegradation(in *model.Instance, s *rng.Stream) Degradation {
	var d Degradation
	perm := s.Perm(in.N())
	for _, f := range perm[:1+s.IntN(2)] {
		d.FailedServers = append(d.FailedServers, f)
	}
	edges := in.Top.Net.Edges()
	if len(edges) > 0 {
		for c := 0; c < s.IntN(3); c++ {
			e := edges[s.IntN(len(edges))]
			d.CutLinks = append(d.CutLinks, [2]int{e.U, e.V})
		}
	}
	if s.Bool(0.3) {
		d.CloudFactor = 0.5
	}
	return d
}

// unionDeg overlays b on a: the compound fault state when b lands while
// a is still active. Duplicates are fine — Degrade tolerates them.
func unionDeg(a, b Degradation) Degradation {
	var u Degradation
	u.FailedServers = append(append([]int(nil), a.FailedServers...), b.FailedServers...)
	u.CutLinks = append(append([][2]int(nil), a.CutLinks...), b.CutLinks...)
	u.CloudFactor = a.CloudFactor
	if b.CloudFactor != 0 && (u.CloudFactor == 0 || b.CloudFactor < u.CloudFactor) {
		u.CloudFactor = b.CloudFactor
	}
	return u
}

func strategiesEqual(in *model.Instance, a, b model.Strategy) bool {
	for j := range a.Alloc {
		if a.Alloc[j] != b.Alloc[j] {
			return false
		}
	}
	for i := 0; i < in.N(); i++ {
		for k := 0; k < in.K(); k++ {
			if a.Delivery.Placed(i, k) != b.Delivery.Placed(i, k) {
				return false
			}
		}
	}
	return true
}

// assertFixpoint re-repairs st on its own instance (no new failure) and
// requires a clean no-op: zero moves, zero replica churn, identical
// strategy. This is the convergence property — one repair pass reaches
// a state further passes cannot improve.
func assertFixpoint(t *testing.T, label string, deg *model.Instance, st model.Strategy) {
	t.Helper()
	again, rep, err := RepairDegraded(deg, deg, st, Options{})
	if err != nil {
		t.Fatalf("%s: fixpoint re-repair failed: %v", label, err)
	}
	if rep.Moves != 0 || rep.ReplacedReplicas != 0 || rep.LostReplicas != 0 {
		t.Fatalf("%s: re-repair was not a no-op: %+v", label, rep)
	}
	if !strategiesEqual(deg, st, again) {
		t.Fatalf("%s: re-repair changed the strategy", label)
	}
}

// TestRepairConvergesUnderOverlappingDegradations is the property test
// behind the serving loop's degradation→repair→swap contract: random
// compound degradations land in overlapping sequence — a second fault
// set arrives while the first is still being carried, then the first
// lifts, then everything recovers — with each repair patching the
// previous repair's output rather than the pristine strategy. At every
// stage the repaired strategy must be valid (RepairDegraded checks
// internally) and a fixpoint, and full recovery must re-admit every
// user the healthy solution served.
func TestRepairConvergesUnderOverlappingDegradations(t *testing.T) {
	const trials = 6
	for trial := 0; trial < trials; trial++ {
		s := rng.New(uint64(300 + trial))
		in := genInstance(t, 12, 80, 4, uint64(40+trial))
		st := core.Solve(in, core.DefaultOptions()).Strategy
		baseAllocated := st.Alloc.AllocatedCount()

		d1 := randDegradation(in, s.Split("d1"))
		d2 := randDegradation(in, s.Split("d2"))
		// The overlap sequence: d1 lands; d2 lands on top of d1; d1
		// lifts leaving d2; d2 lifts. Every stage's fault state is
		// expressed cumulatively against the pristine instance, as the
		// chaos and serving planes do.
		stages := []struct {
			name string
			d    Degradation
		}{
			{"onset d1", d1},
			{"overlap d1+d2", unionDeg(d1, d2)},
			{"partial recovery d2", d2},
			{"full recovery", Degradation{}},
		}

		ref, cur := in, st
		for _, stage := range stages {
			deg, err := Degrade(in, stage.d)
			if err != nil {
				t.Fatalf("trial %d %s: degrade: %v", trial, stage.name, err)
			}
			next, _, err := RepairDegraded(ref, deg, cur, Options{})
			if err != nil {
				t.Fatalf("trial %d %s: repair: %v", trial, stage.name, err)
			}
			assertFixpoint(t, stage.name, deg, next)
			ref, cur = deg, next
		}

		// Convergence across paths: the stepwise chain and a direct
		// repair from the healthy strategy need not agree replica for
		// replica, but both must be fixpoints of the same fault state.
		d12, err := Degrade(in, unionDeg(d1, d2))
		if err != nil {
			t.Fatal(err)
		}
		direct, _, err := RepairDegraded(in, d12, st, Options{})
		if err != nil {
			t.Fatalf("trial %d: direct compound repair: %v", trial, err)
		}
		assertFixpoint(t, "direct d1+d2", d12, direct)

		// Full recovery re-admits everyone the healthy solution served.
		if got := cur.Alloc.AllocatedCount(); got < baseAllocated {
			t.Errorf("trial %d: recovery allocated %d users, healthy baseline had %d", trial, got, baseAllocated)
		}
		if n := strandedUsers(in, cur); n != 0 {
			t.Errorf("trial %d: %d users stranded after full recovery", trial, n)
		}
	}
}

// TestRepairRepeatedSameDegradationMidRepair replays the same
// degradation repeatedly against successive repair outputs — the
// "degradation re-reported mid-repair" case the serving loop's
// threshold replanner can produce — and requires the second and every
// later application to be a strict no-op.
func TestRepairRepeatedSameDegradationMidRepair(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		s := rng.New(uint64(900 + trial))
		in := genInstance(t, 10, 60, 3, uint64(70+trial))
		st := core.Solve(in, core.DefaultOptions()).Strategy
		d := randDegradation(in, s)
		deg, err := Degrade(in, d)
		if err != nil {
			t.Fatal(err)
		}
		cur, _, err := RepairDegraded(in, deg, st, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for rerun := 0; rerun < 3; rerun++ {
			next, rep, err := RepairDegraded(deg, deg, cur, Options{})
			if err != nil {
				t.Fatalf("trial %d rerun %d: %v", trial, rerun, err)
			}
			if rep.Moves != 0 || rep.ReplacedReplicas != 0 {
				t.Fatalf("trial %d rerun %d: repeated degradation did work: %+v", trial, rerun, rep)
			}
			if !strategiesEqual(deg, cur, next) {
				t.Fatalf("trial %d rerun %d: repeated degradation changed the strategy", trial, rerun)
			}
			cur = next
		}
	}
}
