package idde

import (
	"fmt"
	"testing"

	"idde/internal/experiment"
	"idde/internal/model"
	"idde/internal/repair"
	"idde/internal/shard"
)

// coverageIndexErr reports whether in.Top.Covered is the exact inverse
// of in.Top.Coverage: j ∈ Covered[i] ⇔ i ∈ Coverage[j], no pair listed
// twice.
func coverageIndexErr(in *model.Instance) error {
	pairs := make(map[[2]int]bool)
	for i, us := range in.Top.Covered {
		for _, j := range us {
			if pairs[[2]int{i, j}] {
				return fmt.Errorf("user %d listed twice in Covered[%d]", j, i)
			}
			pairs[[2]int{i, j}] = true
		}
	}
	n := 0
	for j, vs := range in.Top.Coverage {
		for _, i := range vs {
			if !pairs[[2]int{i, j}] {
				return fmt.Errorf("server %d in Coverage[%d] but user %d missing from Covered[%d]", i, j, j, i)
			}
			n++
		}
	}
	if n != len(pairs) {
		return fmt.Errorf("Covered lists %d pairs, Coverage %d", len(pairs), n)
	}
	return nil
}

// TestCoverageIndexIsInverse pins the invariant the dirty-set scheduler
// (game.Localized.Affected) and the ledger's Benefit memo invalidation
// rely on: every builder of an instance keeps Covered the exact inverse
// of Coverage — topology.Finalize, the restricted shard tile views and
// the degraded instances repair builds.
func TestCoverageIndexIsInverse(t *testing.T) {
	in, err := experiment.BuildInstance(experiment.Params{N: 24, M: 300, K: 4, Density: 1.0}, 9)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]*model.Instance{"Finalize": in}
	for _, tiles := range []int{2, 4, 7} {
		for v, view := range shard.Views(in, tiles) {
			cases[fmt.Sprintf("Views(%d)[%d]", tiles, v)] = view
		}
	}
	failed, err := repair.Degrade(in, repair.Degradation{FailedServers: []int{2, 5}})
	if err != nil {
		t.Fatal(err)
	}
	cases["Degrade(servers)"] = failed
	edge := in.Top.Net.Edges()[0]
	degraded, err := repair.Degrade(failed, repair.Degradation{
		FailedServers: []int{7},
		CutLinks:      [][2]int{{edge.U, edge.V}},
		CloudFactor:   0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cases["Degrade(compound)"] = degraded
	for name, c := range cases {
		if err := coverageIndexErr(c); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
