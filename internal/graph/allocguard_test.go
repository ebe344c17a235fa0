//go:build !race

package graph

import (
	"testing"

	"idde/internal/rng"
)

// TestAPSPAllocsBounded pins APSP's allocations at a small constant:
// the row index, the flat N×N backing and the shared heap's growth,
// on a sparse and a dense 200-vertex graph alike. A per-source cost
// row or a boxed heap item would cost hundreds or thousands. The race
// detector instruments allocations, so the file is excluded from
// -race runs; CI's zero-alloc step runs it plain.
func TestAPSPAllocsBounded(t *testing.T) {
	for _, edges := range []int{300, 6000} {
		g := RandomConnected(200, edges, 2000, 6000, rng.New(uint64(edges)))
		if allocs := testing.AllocsPerRun(5, func() { g.APSP() }); allocs > 8 {
			t.Errorf("APSP on 200 vertices, %d edges: %.0f allocs per run, want ≤ 8", edges, allocs)
		}
	}
}
