// Package model defines the IDDE problem instance and its two decision
// profiles — the user allocation profile α (Definition 1) and the data
// delivery profile σ (Definition 2) — together with evaluators for the
// two objectives: the users' average data rate R_avg (Eqs. 2–5) and the
// average data delivery latency L_avg (Eqs. 8–9), plus the constraint
// checks of Eqs. (1), (6) and (7)/(8).
//
// Two incremental evaluators make the algorithms fast: Ledger maintains
// per-channel power sums plus per-(receiver, source, channel)
// gain-weighted interference aggregates for O(|V_j|) best-response
// evaluations in the IDDE-U game, and LatencyState maintains per-request
// best latencies for O(requests-of-item) marginal gains in the greedy
// delivery phase.
package model

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"idde/internal/geo"
	"idde/internal/radio"
	"idde/internal/topology"
	"idde/internal/units"
	"idde/internal/workload"
)

// Instance is an immutable IDDE problem: a topology, a workload over it
// and the radio propagation model, with the server×user channel gains
// precomputed (both the serving gain g_{i,x,j} and the inter-cell
// interference terms g_{i,x,t} of Eq. 2 read from them).
//
// # Gain storage
//
// The paper's gain depends only on the (server, user) distance, not on
// the channel index, so conceptually a 2-D N×M matrix suffices — but a
// dense matrix is an O(N·M) wall at the M≥10⁵ rungs. Gains are instead
// stored in a CSR spatial layout: per server, a sorted column-index +
// value row holding every user within the interference cutoff radius
// of that server, built from the geo spatial hash. Reads outside a
// row's support fall back to recomputing the gain from the positions —
// the gain is a pure function of the distance, so the fallback is
// bit-identical to what a dense matrix would have stored, and every
// evaluator result is independent of the cutoff. The cutoff only
// decides how much is precomputed (speed) versus recomputed (memory).
//
// New picks whichever layout is smaller for the instance at hand. It
// first collects each row's support, which fixes the stored entry
// count, then builds only the layout it keeps: on compact Table
// 2-scale regions the cutoff disk spans the whole map, the dense
// matrix wins and no CSR row is sorted or filled; on region-scaled
// large instances the CSR rows are a few percent of M and the dense
// matrix never materializes.
type Instance struct {
	Top   *topology.Topology
	Wl    *workload.Workload
	Radio radio.Model

	// CSR gain rows: cols[rowStart[i]:rowStart[i+1]] lists, ascending,
	// the users within cutoff of server i; vals holds their gains.
	rowStart []int64
	cols     []int32
	vals     []float64
	// cutoff is the interference cutoff radius the rows were built
	// with.
	cutoff units.Meters
	// dense is the reference layout: the full N×M matrix. Non-nil
	// exactly when the instance is in dense mode (then the CSR slices
	// are nil).
	dense [][]float64
}

// DefaultCutoffFactor scales the maximum coverage radius into the
// default interference cutoff. Every gain the solvers read in practice
// is for a (server i, user t) pair with d(i,t) ≤ r_i + 2·r_max: the
// receiver covers the probed user j, the interfering source o covers j
// too, and t is covered by o — three hops of at most r_max each beyond
// the receiver's own disk. A cutoff of 3·r_max therefore keeps every
// in-practice read inside the precomputed rows; reads beyond it (only
// reachable through arbitrary-caller hypotheticals) hit the exact
// recompute fallback.
const DefaultCutoffFactor = 3

// New validates the pieces against each other and precomputes gains,
// choosing the smaller of the sparse CSR and dense layouts (see the
// Instance doc). It counts the row supports first and builds only the
// layout it keeps. The two layouts are read-for-read identical, so the
// choice is invisible to every consumer.
func New(top *topology.Topology, wl *workload.Workload, rm radio.Model) (*Instance, error) {
	in, rows, err := newSupports(top, wl, rm, 0)
	if err != nil {
		return nil, err
	}
	var nnz int64
	for _, row := range rows {
		nnz += int64(len(row))
	}
	// 12 bytes per stored entry (int32 col + float64 val) against 8 per
	// dense cell: densify when the rows would not actually be smaller.
	if 12*nnz >= 8*int64(top.N())*int64(top.M()) {
		return &Instance{Top: top, Wl: wl, Radio: rm, dense: denseGains(top, rm)}, nil
	}
	in.fillCSR(rows)
	return in, nil
}

// NewSparse builds an instance with the CSR gain layout under an
// explicit interference cutoff radius (0 = DefaultCutoffFactor times
// the maximum coverage radius). A cutoff smaller than the largest
// coverage radius is rejected: serving-link gains must come from the
// precomputed rows. NewSparse never falls back to the dense layout —
// callers that want the automatic choice use New.
func NewSparse(top *topology.Topology, wl *workload.Workload, rm radio.Model, cutoff units.Meters) (*Instance, error) {
	in, rows, err := newSupports(top, wl, rm, cutoff)
	if err != nil {
		return nil, err
	}
	in.fillCSR(rows)
	return in, nil
}

// newSupports validates the pieces, resolves the cutoff and runs the
// first half of the CSR build: per server, the users within cutoff,
// unsorted. Rows are computed independently, so the supports (as sets)
// are identical across GOMAXPROCS settings.
func newSupports(top *topology.Topology, wl *workload.Workload, rm radio.Model, cutoff units.Meters) (*Instance, [][]int32, error) {
	if err := validateInstance(top, wl); err != nil {
		return nil, nil, err
	}
	rmax := top.MaxRadius()
	if cutoff == 0 {
		cutoff = DefaultCutoffFactor * rmax
	}
	if cutoff < rmax {
		return nil, nil, fmt.Errorf("model: interference cutoff %v is smaller than the largest coverage radius %v", cutoff, rmax)
	}
	in := &Instance{Top: top, Wl: wl, Radio: rm, cutoff: cutoff}
	n, m := top.N(), top.M()
	if n == 0 || m == 0 {
		return in, make([][]int32, n), nil
	}
	cell := float64(cutoff) / 2
	if cell <= 0 {
		cell = 1
	}
	grid := geo.NewGrid(cell)
	for j := 0; j < m; j++ {
		grid.Insert(j, top.Users[j].Pos)
	}
	// Grid.Within compares squared distances; the stored predicate is
	// the same hypot ≤ cutoff that the fallback recompute would see, so
	// a boundary pair is either in the row or served by the fallback —
	// never both, never neither (query with a hair of margin, filter
	// exactly).
	rows := make([][]int32, n)
	forRows(n, func(i int) {
		us := grid.Within(top.Servers[i].Pos, cutoff+1e-6)
		row := make([]int32, 0, len(us))
		for _, j := range us {
			if float64(top.Distance(i, j)) <= float64(cutoff) {
				row = append(row, int32(j))
			}
		}
		rows[i] = row
	})
	return in, rows, nil
}

func validateInstance(top *topology.Topology, wl *workload.Workload) error {
	if top == nil || wl == nil {
		return fmt.Errorf("model: nil topology or workload")
	}
	if err := wl.Validate(top.N(), top.M()); err != nil {
		return err
	}
	if !top.Finalized() {
		return fmt.Errorf("model: topology not finalized")
	}
	return nil
}

// fillCSR is the second half of the CSR build: it lays the supports
// out by prefix sum, then, in parallel, sorts each row ascending and
// computes its gains, so the result is identical across GOMAXPROCS
// settings.
func (in *Instance) fillCSR(rows [][]int32) {
	in.rowStart = make([]int64, len(rows)+1)
	for i, row := range rows {
		in.rowStart[i+1] = in.rowStart[i] + int64(len(row))
	}
	nnz := in.rowStart[len(rows)]
	in.cols = make([]int32, nnz)
	in.vals = make([]float64, nnz)
	forRows(len(rows), func(i int) {
		cols := in.cols[in.rowStart[i]:in.rowStart[i+1]]
		copy(cols, rows[i])
		slices.Sort(cols)
		vals := in.vals[in.rowStart[i]:in.rowStart[i+1]]
		for idx, j := range cols {
			vals[idx] = in.Radio.Gain(in.Top.Distance(i, int(j)))
		}
	})
}

// denseGains materializes the full N×M gain matrix. The expression is
// the same Radio.Gain ∘ Distance composition the CSR build and the
// sparse fallback use, so every cell is bit-identical across layouts.
func denseGains(top *topology.Topology, rm radio.Model) [][]float64 {
	n, m := top.N(), top.M()
	g := make([][]float64, n)
	flat := make([]float64, n*m)
	forRows(n, func(i int) {
		row := flat[i*m : (i+1)*m : (i+1)*m]
		for j := 0; j < m; j++ {
			row[j] = rm.Gain(top.Distance(i, j))
		}
		g[i] = row
	})
	return g
}

// forRows runs f(i) for every row i in [0, n) on up to GOMAXPROCS
// goroutines, each taking a strided slice of the rows.
func forRows(n int, f func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				f(i)
			}
		}(w)
	}
	wg.Wait()
}

// Sparse reports whether the instance uses the CSR gain layout.
func (in *Instance) Sparse() bool { return in.dense == nil }

// NNZ reports the number of stored gain entries: Σ_i |row_i| for the
// CSR layout, N·M for the dense one.
func (in *Instance) NNZ() int64 {
	if in.dense != nil {
		return int64(in.N()) * int64(in.M())
	}
	return in.rowStart[len(in.rowStart)-1]
}

// Densified returns an instance with the dense reference layout over
// the same topology, workload and radio model. A dense instance
// returns itself; a sparse one gets a sibling whose matrix holds, for
// every (i, j), exactly the value GainAt would produce — inside the
// cutoff the stored row value, outside it the recomputed fallback,
// which are the same expression.
func (in *Instance) Densified() *Instance {
	if in.dense != nil {
		return in
	}
	out := &Instance{Top: in.Top, Wl: in.Wl, Radio: in.Radio}
	out.dense = denseGains(in.Top, in.Radio)
	return out
}

// GainAt reports the channel gain between server i and user j. Sparse
// reads binary-search the row support and fall back to recomputing the
// gain from the distance on a miss — bit-identical to the dense cell,
// since gain is a pure function of distance.
func (in *Instance) GainAt(i, j int) float64 {
	if in.dense != nil {
		return in.dense[i][j]
	}
	cols := in.cols[in.rowStart[i]:in.rowStart[i+1]]
	lo, hi := 0, len(cols)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(cols[mid]) < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(cols) && int(cols[lo]) == j {
		return in.vals[in.rowStart[i]+int64(lo)]
	}
	return in.Radio.Gain(in.Top.Distance(i, j))
}

// GainRow is an iterable view of one server's gain row. It is a plain
// value (no allocation to obtain or hold one) shared across layouts:
// dense rows expose the matrix row, sparse rows expose the CSR support
// with an O(log width) point lookup and the exact recompute fallback
// for out-of-support columns.
type GainRow struct {
	in    *Instance
	i     int32
	cols  []int32
	vals  []float64
	dense []float64
}

// GainRow returns server i's gain row.
func (in *Instance) GainRow(i int) GainRow {
	if in.dense != nil {
		return GainRow{in: in, i: int32(i), dense: in.dense[i]}
	}
	return GainRow{
		in:   in,
		i:    int32(i),
		cols: in.cols[in.rowStart[i]:in.rowStart[i+1]],
		vals: in.vals[in.rowStart[i]:in.rowStart[i+1]],
	}
}

// At reports the gain toward user j: O(1) dense, O(log width) sparse
// with the recompute fallback outside the support.
func (r GainRow) At(j int) float64 {
	if r.dense != nil {
		return r.dense[j]
	}
	lo, hi := 0, len(r.cols)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(r.cols[mid]) < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(r.cols) && r.cols[lo] == int32(j) {
		return r.vals[lo]
	}
	return r.in.Radio.Gain(r.in.Top.Distance(int(r.i), j))
}

// LayoutStats describes an instance's gain-storage footprint.
type LayoutStats struct {
	// Sparse reports the active layout; Cutoff the interference cutoff
	// radius of a sparse instance (0 for dense).
	Sparse bool
	Cutoff units.Meters
	// NNZ is the stored entry count; Density its fraction of N·M.
	NNZ     int64
	Density float64
	// Bytes is the gain-storage footprint of the active layout.
	// DenseEquivBytes is what the dense era held for the same instance:
	// the N×M gain matrix plus the N×M distance matrix the topology
	// used to precompute (both float64).
	Bytes           int64
	DenseEquivBytes int64
}

// LayoutStats reports the instance's gain-storage accounting.
func (in *Instance) LayoutStats() LayoutStats {
	nm := int64(in.N()) * int64(in.M())
	st := LayoutStats{
		Sparse:          in.dense == nil,
		NNZ:             in.NNZ(),
		DenseEquivBytes: 16 * nm,
	}
	if nm > 0 {
		st.Density = float64(st.NNZ) / float64(nm)
	}
	if st.Sparse {
		st.Cutoff = in.cutoff
		st.Bytes = 12*st.NNZ + 8*int64(len(in.rowStart))
	} else {
		st.Bytes = 8 * nm
	}
	return st
}

// N, M and K report the instance dimensions.
func (in *Instance) N() int { return in.Top.N() }
func (in *Instance) M() int { return in.Top.M() }
func (in *Instance) K() int { return in.Wl.K() }

// CloudLatency reports the Eq. (8) latency of retrieving item k from
// the remote cloud (the σ_{cloud,k}=1 fallback of Eq. 7).
func (in *Instance) CloudLatency(k int) units.Seconds {
	return in.Top.CloudCost.Times(in.Wl.Items[k].Size)
}

// EdgeLatency reports the Eq. (8) latency of delivering item k from
// server o to server i over the wired edge network.
func (in *Instance) EdgeLatency(k, o, i int) units.Seconds {
	return in.Top.PathCost[o][i].Times(in.Wl.Items[k].Size)
}
