//go:build !race

package shard

import (
	"testing"

	"idde/internal/model"
	"idde/internal/rng"
)

// The race detector instruments allocations, so the file is excluded
// from -race runs; the plain tier-1 `go test ./...` and CI's zero-alloc
// step run it.

// TestTileViewBenefitZeroAllocs pins the tile games' interior hot path,
// Ledger.Benefit over a restricted tile view, at zero steady-state
// allocations: a warm evaluation that allocated would churn the heap in
// every tile solve.
func TestTileViewBenefitZeroAllocs(t *testing.T) {
	in := buildInstance(t, params{N: 24, M: 200, K: 5}, 2022)
	view := Views(in, 4)[0]
	s := rng.New(2022 * 77)
	l := model.NewLedger(view, model.NewAllocation(view.M()))
	for j := 0; j < view.M(); j++ {
		if vs := view.Top.Coverage[j]; len(vs) > 0 {
			i := vs[s.IntN(len(vs))]
			l.Move(j, model.Alloc{Server: i, Channel: s.IntN(view.Top.Servers[i].Channels)})
		}
	}
	l.WarmAggregates()
	var js []int
	var as []model.Alloc
	for draws := 0; len(js) < 64 && draws < 4096; draws++ {
		j := s.IntN(view.M())
		vs := view.Top.Coverage[j]
		if len(vs) == 0 {
			continue
		}
		i := vs[s.IntN(len(vs))]
		js = append(js, j)
		as = append(as, model.Alloc{Server: i, Channel: s.IntN(view.Top.Servers[i].Channels)})
	}
	if len(js) == 0 {
		t.Fatal("tile view covers no user")
	}
	var bi int
	if avg := testing.AllocsPerRun(64, func() {
		_ = l.Benefit(js[bi], as[bi])
		bi = (bi + 1) % len(js)
	}); avg != 0 {
		t.Fatalf("Ledger.Benefit over a tile view allocates %.2f allocs/op in steady state, want 0", avg)
	}
}
