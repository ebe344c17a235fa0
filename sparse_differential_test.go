package idde

import (
	"reflect"
	"testing"

	"idde/internal/core"
	"idde/internal/experiment"
	"idde/internal/model"
	"idde/internal/units"
)

// The sparse-vs-dense differential suite: the CSR gain layout recomputes
// out-of-support reads from the positions with the exact expression the
// dense matrix stored, so every solver path must produce bit-identical
// results on the two layouts — for the default cutoff (all in-practice
// reads precomputed) and for the tightest legal cutoff (the bare
// coverage radius, which pushes most interference reads through the
// recompute fallback).

var sparseGrid = []struct {
	p    experiment.Params
	seed uint64
}{
	{experiment.Params{N: 12, M: 90, K: 5, Density: 1.0}, 5},
	{experiment.Params{N: 20, M: 150, K: 6, Density: 1.0}, 2022},
	{experiment.Params{N: 25, M: 260, K: 5, Density: 1.0}, 21},
	// A region-scaled map, where coverage disks thin out and the CSR
	// rows are genuinely sparse rather than forced.
	{experiment.Params{N: 40, M: 800, K: 5, Density: 1.0, RegionScale: 2}, 2022},
}

// sparseVariants builds the forced-sparse siblings of an instance (the
// compact Table 2 regions are dense enough that model.New auto-densifies,
// so the differential forces the CSR path explicitly).
func sparseVariants(t *testing.T, in *model.Instance) map[string]*model.Instance {
	t.Helper()
	out := make(map[string]*model.Instance)
	for name, cutoff := range map[string]units.Meters{
		"default-cutoff": 0,
		"tight-cutoff":   in.Top.MaxRadius(),
	} {
		sp, err := model.NewSparse(in.Top, in.Wl, in.Radio, cutoff)
		if err != nil {
			t.Fatalf("NewSparse(%s): %v", name, err)
		}
		if !sp.Sparse() {
			t.Fatalf("NewSparse(%s) returned a dense instance", name)
		}
		out[name] = sp
	}
	return out
}

// TestSparseSolveMatchesDense: full two-phase solves on the CSR layout
// must fingerprint-match the dense reference, under both cutoffs.
func TestSparseSolveMatchesDense(t *testing.T) {
	for _, g := range sparseGrid {
		in, err := experiment.BuildInstance(g.p, g.seed)
		if err != nil {
			t.Fatal(err)
		}
		dense := in.Densified()
		base := fingerprint(core.Solve(dense, core.DefaultOptions()))
		for name, sp := range sparseVariants(t, in) {
			got := fingerprint(core.Solve(sp, core.DefaultOptions()))
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("%v [%s]: sparse solve diverges from dense:\n%+v\nvs\n%+v", g.p, name, got, base)
			}
		}
	}
}

// TestSparsePhase1MatchesDense pins the equilibrium allocation and the
// game dynamics stats alone — the layer where every gain read goes
// through the ledger's GainRow iteration.
func TestSparsePhase1MatchesDense(t *testing.T) {
	for _, g := range sparseGrid {
		in, err := experiment.BuildInstance(g.p, g.seed)
		if err != nil {
			t.Fatal(err)
		}
		baseAlloc, baseStats := core.SolvePhase1(in.Densified(), core.DefaultOptions())
		for name, sp := range sparseVariants(t, in) {
			alloc, stats := core.SolvePhase1(sp, core.DefaultOptions())
			if !reflect.DeepEqual(alloc, baseAlloc) || stats != baseStats {
				t.Fatalf("%v [%s]: sparse Phase 1 diverges from dense", g.p, name)
			}
		}
	}
}

// TestSparseShardedSolveMatchesDense runs the geo-sharded solver on both
// layouts: partition, tile games, halo exchange and reconcile all read
// gains through the row API, so the 4-tile fingerprints and shard stats
// must agree exactly.
func TestSparseShardedSolveMatchesDense(t *testing.T) {
	for _, g := range sparseGrid {
		in, err := experiment.BuildInstance(g.p, g.seed)
		if err != nil {
			t.Fatal(err)
		}
		opt := core.DefaultOptions()
		opt.Shards = 4
		baseRes := core.Solve(in.Densified(), opt)
		base := fingerprint(baseRes)
		for name, sp := range sparseVariants(t, in) {
			res := core.Solve(sp, opt)
			if !reflect.DeepEqual(fingerprint(res), base) || *res.Shard != *baseRes.Shard {
				t.Fatalf("%v [%s]: sparse sharded solve diverges from dense", g.p, name)
			}
		}
	}
}

// TestRegionScaledInstanceStaysSparse pins the automatic layout choice
// on a scaled-out deployment: N=500 servers and M=10⁴ users on a region
// grown by sqrt(N/125) = 2 per axis, the paper's 125-server CBD density
// held constant. model.New must keep the CSR layout there, at under a
// third of the dense-era gain+distance matrices.
func TestRegionScaledInstanceStaysSparse(t *testing.T) {
	p := experiment.Params{N: 500, M: 10000, K: 5, Density: 1.0, RegionScale: 2}
	in, err := experiment.BuildInstance(p, 2022)
	if err != nil {
		t.Fatal(err)
	}
	st := in.LayoutStats()
	if !in.Sparse() || !st.Sparse {
		t.Fatalf("%v fell back to the dense gain layout: %+v", p, st)
	}
	if st.Bytes*3 >= st.DenseEquivBytes {
		t.Fatalf("%v: CSR layout holds %d bytes against %d dense-era bytes, want under a third",
			p, st.Bytes, st.DenseEquivBytes)
	}
}

// TestSparseGainReadsMatchDense sweeps every (server, user) pair — in
// and out of the CSR support — and demands exact equality with the
// dense matrix cell, the contract everything above rests on.
func TestSparseGainReadsMatchDense(t *testing.T) {
	in, err := experiment.BuildInstance(sparseGrid[0].p, sparseGrid[0].seed)
	if err != nil {
		t.Fatal(err)
	}
	dense := in.Densified()
	for name, sp := range sparseVariants(t, in) {
		st := sp.LayoutStats()
		if !st.Sparse || st.NNZ != sp.NNZ() {
			t.Fatalf("[%s] inconsistent layout stats: %+v", name, st)
		}
		for i := 0; i < in.N(); i++ {
			row := sp.GainRow(i)
			for j := 0; j < in.M(); j++ {
				want := dense.GainAt(i, j)
				if got := sp.GainAt(i, j); got != want {
					t.Fatalf("[%s] GainAt(%d,%d) = %v, dense %v", name, i, j, got, want)
				}
				if got := row.At(j); got != want {
					t.Fatalf("[%s] GainRow(%d).At(%d) = %v, dense %v", name, i, j, got, want)
				}
			}
		}
	}
}
