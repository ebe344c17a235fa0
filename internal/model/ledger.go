package model

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"idde/internal/radio"
	"idde/internal/units"
)

// Ledger tracks, for a mutable allocation profile, which users occupy
// each (server, channel) and the total transmit power there. It answers
// the per-user quantities of §2.2 — SINR (Eq. 2), achievable rate
// (Eqs. 3–4) and the game benefit (Eq. 12) — for both the current
// decision and hypothetical moves, in time proportional to the coverage
// set of the user involved rather than to M or to channel occupancy.
//
// Two interference evaluators coexist. The default keeps, per (receiver
// server i, source server o, channel x), the gain-weighted power sum
// Σ_{t∈users[o][x]} Gain[i][t]·p_t, so the inter-cell term F of Eq. (2)
// is |V_j| lookups instead of a walk over every co-channel occupant.
// Receiver rows are built lazily (one-shot evaluations never pay for
// them). A Move touches only the rows of receivers that co-cover the
// mover's source or destination server — the only rows holding a cell
// for either — so its cost tracks local density, not N. The naive
// reference scan remains available via SetNaiveInterference for
// differential tests and drift-sensitive debugging; the two differ only
// in floating-point summation order.
//
// The serving gain g = Gain[i][j] of every in-coverage decision is
// static, so it is read from a per-ledger table indexed like
// Coverage[j] rather than searched for in the CSR rows on every
// evaluation. The table is built from the ledger's own topology because
// shard tile views share one Instance's gains under restricted coverage
// lists.
//
// # Benefit memo
//
// Benefit caches the value of every in-coverage decision (see
// benefitMemo). An in-coverage Benefit(j, {i, y}) reads only static
// gains, power[i][y], the channel-y cells of the servers in Coverage[j]
// and j's own decision, and a Move changes occupancy at exactly its two
// (server, channel) pairs; so Move invalidates channel x of every user
// in Covered[o] for each touched pair (o, x), plus every channel of the
// mover, and every other cached value stays bit-identical to a fresh
// evaluation. Concurrency contract: only Benefit(j, ·) writes user j's
// memo entries, so concurrent Benefit calls must be for distinct users
// — the game engine never evaluates one player on two workers at once —
// and, as everywhere, Move must not race with evaluations.
//
// # Aggregate-row memory
//
// A receiver's row is built at its first evaluation (or by
// WarmAggregates) and kept for the ledger's lifetime; only
// SetNaiveInterference drops the rows. A row holds 4·N bytes of source
// offsets plus 8 bytes per channel of its co-covering sources, and
// AggMemStats reports the total. There is no residency cap: capping
// rows cut their memory 7.2× at N=1000 but slowed each evaluation
// 26–41× (DESIGN.md §5e).
type Ledger struct {
	in    *Instance
	alloc Allocation
	// users[i][x] lists the users on channel x of server i.
	users [][][]int
	// power[i][x] is Σ p_t over those users.
	power [][]units.Watts
	// covGain[covBase[j]+k] is GainAt(Coverage[j][k], j): the serving
	// gain of every in-coverage decision, flattened over users.
	covGain []float64
	covBase []int32
	// memo caches in-coverage Benefit values; built at the first
	// aggregate-path Benefit, so ledgers that only evaluate rates never
	// pay for it.
	memo atomic.Pointer[benefitMemo]

	// agg[i] points at the lazily built receiver-i aggregate row:
	// vals[srcOff[o]+x] = Σ_{t∈users[o][x]} Gain[i][t]·p_t, restricted
	// to sources o that co-cover a user with i — the only sources the
	// Eq. 2 Coverage walk can pair with receiver i. Rows are published
	// atomically so concurrent best-response scans may fault them in;
	// Move (single-writer by the Adapter contract) updates only rows
	// that exist.
	agg   []atomic.Pointer[aggRowData]
	aggMu sync.Mutex
	// srcSets[i] caches receiver i's co-covering source set as a bitset
	// with the total channel width. It is profile-independent, built at
	// the first row build (or the first Move that needs server i's
	// co-covering receivers — the same set, by symmetry) and kept when
	// SetNaiveInterference drops the rows.
	srcSets []atomic.Pointer[aggSrcSet]

	// rowBytes counts the bytes of the built rows' slices; it is
	// nonzero exactly when some row is built. srcSetBytes counts the
	// bitsets. Both change only under aggMu.
	rowBytes    atomic.Int64
	srcSetBytes int64

	// naive switches the inter-cell term to the O(occupancy) reference
	// scan.
	naive bool
}

// NewLedger builds a ledger over a copy of the given profile.
func NewLedger(in *Instance, alloc Allocation) *Ledger {
	l := &Ledger{
		in:      in,
		alloc:   alloc.Clone(),
		users:   make([][][]int, in.N()),
		power:   make([][]units.Watts, in.N()),
		agg:     make([]atomic.Pointer[aggRowData], in.N()),
		srcSets: make([]atomic.Pointer[aggSrcSet], in.N()),
	}
	for i := 0; i < in.N(); i++ {
		c := in.Top.Servers[i].Channels
		l.users[i] = make([][]int, c)
		l.power[i] = make([]units.Watts, c)
	}
	for j, d := range l.alloc {
		if d.Allocated() {
			l.users[d.Server][d.Channel] = append(l.users[d.Server][d.Channel], j)
			l.power[d.Server][d.Channel] += in.Top.Users[j].Power
		}
	}
	cov := in.Top.Coverage
	l.covBase = make([]int32, len(cov)+1)
	for j, vs := range cov {
		l.covBase[j+1] = l.covBase[j] + int32(len(vs))
	}
	l.covGain = make([]float64, l.covBase[len(cov)])
	for j, vs := range cov {
		row := l.covGain[l.covBase[j]:l.covBase[j+1]]
		for k, i := range vs {
			row[k] = in.GainAt(i, j)
		}
	}
	return l
}

// benefitMemo caches Benefit(j, {Coverage[j][k], y}) in val[(covBase[j]+k)·
// chans + y]. The slot is current while bit k%64 of valid[(j·chans+y)·
// words + k/64] is set: Benefit sets it when it stores a value, and Move
// clears a whole (user, channel) mask when the channel's inputs change.
// One mask per (user, channel) rather than an epoch per slot keeps the
// validity state at chans·words words per user and needs no wrap
// handling.
type benefitMemo struct {
	val   []float64
	valid []uint64
	// hint[j] is the Coverage[j] position of j's last looked-up server
	// (see find).
	hint []int32
	// chans is the largest channel count; words covers the longest
	// Coverage list.
	chans, words int
}

// newMemo builds the Benefit memo under aggMu on first use. Every entry
// starts invalid, so a memo created at any point is consistent.
func (l *Ledger) newMemo() *benefitMemo {
	l.aggMu.Lock()
	defer l.aggMu.Unlock()
	if m := l.memo.Load(); m != nil {
		return m
	}
	m := &benefitMemo{}
	for _, s := range l.in.Top.Servers {
		m.chans = max(m.chans, s.Channels)
	}
	for _, vs := range l.in.Top.Coverage {
		m.words = max(m.words, (len(vs)+63)/64)
	}
	m.val = make([]float64, len(l.covGain)*m.chans)
	m.hint = make([]int32, len(l.in.Top.Coverage))
	m.valid = make([]uint64, len(l.in.Top.Coverage)*m.chans*m.words)
	l.memo.Store(m)
	return m
}

// bit locates the validity bit of user j's k-th covering server on
// channel y.
func (m *benefitMemo) bit(j, k, y int) (*uint64, uint64) {
	return &m.valid[(j*m.chans+y)*m.words+k>>6], 1 << (uint(k) & 63)
}

// find returns server's position in vs = Coverage[j], or -1. A
// best-response scan walks Coverage[j] in order, so the position is
// usually j's last one or the next; hint[j] remembers it.
func (m *benefitMemo) find(vs []int, j, server int) int {
	k := int(m.hint[j])
	if k < len(vs) && vs[k] == server {
		return k
	}
	if k++; k < len(vs) && vs[k] == server {
		m.hint[j] = int32(k)
		return k
	}
	k = slices.Index(vs, server)
	if k >= 0 {
		m.hint[j] = int32(k)
	}
	return k
}

// invalidate clears channel y of user u.
func (m *benefitMemo) invalidate(u, y int) {
	clear(m.valid[(u*m.chans+y)*m.words:][:m.words])
}

// moved invalidates the entries a Move of user j from → to can change:
// channel from.Channel of every user from.Server covers, channel
// to.Channel of every user to.Server covers, and every channel of j.
func (m *benefitMemo) moved(covered [][]int, j int, from, to Alloc) {
	if from.Allocated() {
		for _, u := range covered[from.Server] {
			m.invalidate(u, from.Channel)
		}
	}
	if to.Allocated() {
		for _, u := range covered[to.Server] {
			m.invalidate(u, to.Channel)
		}
	}
	clear(m.valid[j*m.chans*m.words:][:m.chans*m.words])
}

// SetNaiveInterference toggles the O(occupancy) reference scan for the
// inter-cell interference term of Eq. (2). The aggregate evaluator is a
// pure reassociation of the same sum; results agree up to floating-point
// summation order (the differential tests in this package pin that
// down). The naive path is the reference that ReferenceOptions, the
// differential suites and the root benches run, and a tool for
// drift-sensitive debugging. Like Move, it must not race with
// concurrent evaluations.
func (l *Ledger) SetNaiveInterference(on bool) {
	l.naive = on
	// Built rows go stale while the naive path runs (Move stops
	// maintaining them); drop them so re-enabling rebuilds from scratch.
	l.aggMu.Lock()
	defer l.aggMu.Unlock()
	for i := range l.agg {
		l.agg[i].Store(nil)
	}
	l.rowBytes.Store(0)
}

// Alloc returns a snapshot of the current profile.
func (l *Ledger) Alloc() Allocation { return l.alloc.Clone() }

// Current reports user j's current decision.
func (l *Ledger) Current(j int) Alloc { return l.alloc[j] }

// Occupancy reports how many users share channel x of server i.
func (l *Ledger) Occupancy(i, x int) int { return len(l.users[i][x]) }

// Move reassigns user j to decision a (possibly Unallocated),
// maintaining the channel registries and the built aggregate rows of
// the receivers that co-cover the old or new server; a ledger with no
// built row pays for the registries alone. Move must not race with
// concurrent evaluations (the game engine serializes Apply).
func (l *Ledger) Move(j int, a Alloc) {
	cur := l.alloc[j]
	if cur == a {
		return
	}
	if cur.Allocated() {
		l.remove(j, cur)
	}
	if a.Allocated() {
		l.users[a.Server][a.Channel] = append(l.users[a.Server][a.Channel], j)
		l.power[a.Server][a.Channel] += l.in.Top.Users[j].Power
	}
	l.alloc[j] = a
	l.aggMove(j, cur, a)
	if m := l.memo.Load(); m != nil {
		m.moved(l.in.Top.Covered, j, cur, a)
	}
}

// aggRowData is one receiver's aggregate row, restricted to the sources
// that can ever be paired with it by the Eq. 2 Coverage walk.
type aggRowData struct {
	// srcOff[o] is the offset of source o's channel block in vals, or
	// -1 when o never co-covers a user with the receiver. Such cells
	// are only reachable through off-coverage hypotheticals, which
	// interCellRow serves with a single-cell reference walk instead.
	srcOff []int32
	vals   []float64
}

// aggSrcSet is a receiver's co-covering source set (one bit per source)
// plus the total channel width of those sources.
type aggSrcSet struct {
	bits  []uint64
	width int32
}

func (s *aggSrcSet) has(o int) bool { return s.bits[o>>6]&(1<<(uint(o)&63)) != 0 }

// aggMove folds user j's contribution Gain[i][j]·p_j out of (from) and
// into (to) the built receiver rows. Co-coverage is symmetric — row
// i has a cell for source o exactly when i ∈ srcSet(o) — so only the
// receivers in srcSet(from.Server) ∪ srcSet(to.Server) can hold a cell
// to update; every other row is left unread.
func (l *Ledger) aggMove(j int, from, to Alloc) {
	if l.naive || l.rowBytes.Load() == 0 {
		return
	}
	// Invariant: a built cell always equals the left-to-right fold of
	// Gain[i][t]·p_t over the current users[o][x] list — exactly what a
	// fresh build computes. Appends extend the fold with one more term;
	// removals recompute the cell from the (typically short) survivor
	// list instead of subtracting, because incremental subtraction
	// leaves residue proportional to the largest *historical* occupant,
	// which can dwarf the remaining sum and flip argmax decisions
	// against the reference path on near-empty channels.
	var fromUsers []int
	var fromBits, toBits []uint64
	if from.Allocated() {
		fromUsers = l.users[from.Server][from.Channel]
		fromBits = l.srcSet(from.Server).bits
	}
	if to.Allocated() {
		toBits = l.srcSet(to.Server).bits
	}
	p := float64(l.in.Top.Users[j].Power)
	for w := 0; w < (len(l.agg)+63)/64; w++ {
		var word uint64
		if fromBits != nil {
			word = fromBits[w]
		}
		if toBits != nil {
			word |= toBits[w]
		}
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			d := l.agg[i].Load()
			if d == nil {
				continue
			}
			gi := l.in.GainRow(i)
			if from.Allocated() {
				if off := d.srcOff[from.Server]; off >= 0 {
					var sum float64
					for _, t := range fromUsers {
						sum += gi.At(t) * float64(l.in.Top.Users[t].Power)
					}
					d.vals[int(off)+from.Channel] = sum
				}
			}
			if to.Allocated() {
				if off := d.srcOff[to.Server]; off >= 0 {
					d.vals[int(off)+to.Channel] += gi.At(j) * p
				}
			}
		}
	}
}

// srcSet returns server o's co-covering source set, deriving it under
// aggMu on first use.
func (l *Ledger) srcSet(o int) *aggSrcSet {
	if ss := l.srcSets[o].Load(); ss != nil {
		return ss
	}
	l.aggMu.Lock()
	defer l.aggMu.Unlock()
	return l.srcSetLocked(o)
}

// srcSetLocked returns receiver i's co-covering source set, deriving it
// on first use: the union of Coverage[j] across users j that server i
// covers. Caller holds aggMu.
func (l *Ledger) srcSetLocked(i int) *aggSrcSet {
	if ss := l.srcSets[i].Load(); ss != nil {
		return ss
	}
	ss := &aggSrcSet{bits: make([]uint64, (l.in.N()+63)/64)}
	for _, j := range l.in.Top.Covered[i] {
		for _, o := range l.in.Top.Coverage[j] {
			ss.bits[o>>6] |= 1 << (uint(o) & 63)
		}
	}
	for o := 0; o < l.in.N(); o++ {
		if ss.has(o) {
			ss.width += int32(l.in.Top.Servers[o].Channels)
		}
	}
	l.srcSetBytes += int64(len(ss.bits) * 8)
	l.srcSets[i].Store(ss)
	return ss
}

// buildRowLocked materializes receiver i's row, filling every cell with
// the left-to-right fold over the current occupant lists (the aggMove
// invariant), so a row built late is bit-identical to one maintained
// all along. Caller holds aggMu.
func (l *Ledger) buildRowLocked(i int) *aggRowData {
	ss := l.srcSetLocked(i)
	d := &aggRowData{srcOff: make([]int32, l.in.N()), vals: make([]float64, ss.width)}
	var off int32
	for o := range d.srcOff {
		if !ss.has(o) {
			d.srcOff[o] = -1
			continue
		}
		d.srcOff[o] = off
		off += int32(l.in.Top.Servers[o].Channels)
	}
	gi := l.in.GainRow(i)
	for o := range l.users {
		off := d.srcOff[o]
		if off < 0 {
			continue
		}
		for x, us := range l.users[o] {
			var sum float64
			for _, t := range us {
				sum += gi.At(t) * float64(l.in.Top.Users[t].Power)
			}
			d.vals[int(off)+x] = sum
		}
	}
	l.rowBytes.Add(int64(4*len(d.srcOff) + 8*len(d.vals)))
	l.agg[i].Store(d)
	return d
}

// aggRow returns the receiver-i aggregate row, building it on first use.
// Safe for concurrent callers between Moves.
func (l *Ledger) aggRow(i int) *aggRowData {
	if d := l.agg[i].Load(); d != nil {
		return d
	}
	l.aggMu.Lock()
	defer l.aggMu.Unlock()
	if d := l.agg[i].Load(); d != nil {
		return d
	}
	return l.buildRowLocked(i)
}

func (l *Ledger) remove(j int, a Alloc) {
	us := l.users[a.Server][a.Channel]
	for idx, u := range us {
		if u == j {
			us[idx] = us[len(us)-1]
			l.users[a.Server][a.Channel] = us[:len(us)-1]
			break
		}
	}
	l.power[a.Server][a.Channel] -= l.in.Top.Users[j].Power
	if l.power[a.Server][a.Channel] < 0 {
		l.power[a.Server][a.Channel] = 0 // guard fp drift
	}
}

// servingGain reports g = Gain[a.Server][j]. In-coverage gains come
// from the covGain table; off-coverage hypotheticals fall back to the
// instance lookup.
func (l *Ledger) servingGain(j int, a Alloc) float64 {
	for k, i := range l.in.Top.Coverage[j] {
		if i == a.Server {
			return l.covGain[int(l.covBase[j])+k]
		}
	}
	return l.in.GainAt(a.Server, j)
}

// link evaluates the two link quantities of Eq. (2) for user j under
// decision a: the serving gain g and the inter-cell interference F. The
// naive reference reads g from the instance, not the table, so the
// differential tests compare the table against the lookup too.
func (l *Ledger) link(j int, a Alloc) (float64, units.Watts) {
	if l.naive {
		return l.in.GainAt(a.Server, j), l.interCellNaive(j, a)
	}
	g := l.servingGain(j, a)
	return g, l.interCellRow(j, a, l.aggRow(a.Server), g)
}

// interCellRow computes F_{i,x,j} of Eq. (2): the interference measured
// at server i on channel x from users allocated to channel x of the
// *other* servers covering user j, under the hypothesis that j itself
// sits at (i,x) (so j never self-interferes). It reads one
// pre-aggregated sum per covering server out of d, receiver i's row —
// O(|V_j|) — and subtracts j's own contribution g·p_j, g = Gain[i][j],
// where j currently occupies a summed channel.
func (l *Ledger) interCellRow(j int, a Alloc, d *aggRowData, g float64) units.Watts {
	cur := l.alloc[j]
	var f float64
	for _, o := range l.in.Top.Coverage[j] {
		if o == a.Server || a.Channel >= len(l.users[o]) {
			continue
		}
		off := d.srcOff[o]
		if off < 0 {
			// Off-coverage hypothetical: a.Server does not cover j (else
			// o would co-cover with it), so the row has no cell for o.
			// Walk the single (o, channel) cell directly; j can't be in
			// it under the game's coverage-constrained moves, but skip
			// it anyway for arbitrary-caller safety.
			gr := l.in.GainRow(a.Server)
			for _, t := range l.users[o][a.Channel] {
				if t == j {
					continue
				}
				f += gr.At(t) * float64(l.in.Top.Users[t].Power)
			}
			continue
		}
		f += d.vals[int(off)+a.Channel]
		if cur.Server == o && cur.Channel == a.Channel {
			f -= g * float64(l.in.Top.Users[j].Power)
		}
	}
	if f < 0 {
		f = 0 // guard fp drift from the self-term subtraction
	}
	return units.Watts(f)
}

// interCellNaive is the reference evaluator: walk every co-channel
// occupant of every covering server (O(|V_j|·occupancy)).
func (l *Ledger) interCellNaive(j int, a Alloc) units.Watts {
	gr := l.in.GainRow(a.Server)
	var f float64
	for _, o := range l.in.Top.Coverage[j] {
		if o == a.Server || a.Channel >= len(l.users[o]) {
			continue
		}
		for _, t := range l.users[o][a.Channel] {
			if t == j {
				continue
			}
			f += gr.At(t) * float64(l.in.Top.Users[t].Power)
		}
	}
	return units.Watts(f)
}

// WarmAggregates builds every aggregate row not yet built, in ascending
// receiver order, so benchmarks and latency-sensitive callers pay the
// build cost up front instead of at each receiver's first evaluation.
func (l *Ledger) WarmAggregates() {
	if l.naive {
		return
	}
	l.aggMu.Lock()
	defer l.aggMu.Unlock()
	for i := range l.agg {
		if l.agg[i].Load() == nil {
			l.buildRowLocked(i)
		}
	}
}

// AggMemStats is a snapshot of the aggregate-row memory accounting.
type AggMemStats struct {
	// ResidentRows counts the built rows.
	ResidentRows int
	// ArenaBytes is the bytes held by the built rows' slices and the
	// co-source bitsets.
	ArenaBytes int64
	// MemoBytes is the Benefit memo's footprint (values, validity masks
	// and lookup hints; 0 until the first Benefit). It is not part of
	// ArenaBytes.
	MemoBytes int64
}

// AggMemStats reports the aggregate-row memory accounting. Rows that
// concurrent evaluations build while it runs may or may not be counted.
func (l *Ledger) AggMemStats() AggMemStats {
	l.aggMu.Lock()
	defer l.aggMu.Unlock()
	st := AggMemStats{
		ArenaBytes: l.rowBytes.Load() + l.srcSetBytes,
		MemoBytes:  l.memoBytes(),
	}
	for i := range l.agg {
		if l.agg[i].Load() != nil {
			st.ResidentRows++
		}
	}
	return st
}

func (l *Ledger) memoBytes() int64 {
	m := l.memo.Load()
	if m == nil {
		return 0
	}
	return int64(len(m.val))*8 + int64(len(m.valid))*8 + int64(len(m.hint))*4
}

// intraOther computes Σ_{u_t∈U_{i,x}\u_j} p_t under the hypothesis that
// j is (or would be) allocated at a.
func (l *Ledger) intraOther(j int, a Alloc) units.Watts {
	p := l.power[a.Server][a.Channel]
	if l.alloc[j] == a {
		p -= l.in.Top.Users[j].Power
	}
	if p < 0 {
		p = 0
	}
	return p
}

// SINR evaluates Eq. (2) for user j under the hypothetical decision a.
// It reports 0 for Unallocated.
func (l *Ledger) SINR(j int, a Alloc) float64 {
	if !a.Allocated() {
		return 0
	}
	g, f := l.link(j, a)
	return l.in.Radio.SINR(g, l.in.Top.Users[j].Power, l.intraOther(j, a), f)
}

// Rate evaluates Eqs. (3)–(4) — the Shannon rate capped at R_{j,max} —
// for user j under the hypothetical decision a.
func (l *Ledger) Rate(j int, a Alloc) units.Rate {
	if !a.Allocated() {
		return 0
	}
	b := l.in.Top.Servers[a.Server].Bandwidth
	r := radio.ShannonRate(b, l.SINR(j, a))
	return radio.CapRate(r, l.in.Top.Users[j].MaxRate)
}

// CurrentRate evaluates user j's rate under its current decision.
func (l *Ledger) CurrentRate(j int) units.Rate { return l.Rate(j, l.alloc[j]) }

// RateIgnoringInterCell evaluates Eqs. (3)–(4) with the inter-cell term
// F of Eq. (2) dropped — the simplified single-cell interference view
// some baselines (DUP-G) plan with. The *achieved* rate is still
// evaluated with the full model; this is only their decision payoff.
func (l *Ledger) RateIgnoringInterCell(j int, a Alloc) units.Rate {
	if !a.Allocated() {
		return 0
	}
	g := l.servingGain(j, a)
	sinr := l.in.Radio.SINR(g, l.in.Top.Users[j].Power, l.intraOther(j, a), 0)
	b := l.in.Top.Servers[a.Server].Bandwidth
	return radio.CapRate(radio.ShannonRate(b, sinr), l.in.Top.Users[j].MaxRate)
}

// Benefit evaluates the game benefit function of Eq. (12) for user j
// under the hypothetical decision a:
//
//	β = g·p_j / (g·Σ_{u_t∈U_{i,x}(α)} p_t + F)
//
// where the intra-channel sum includes u_j itself (the profile α has
// α_j = a). Unallocated yields 0, so any feasible allocation beats
// staying out — matching the paper's premise that all users can be
// allocated in IDDE scenarios.
//
// In-coverage decisions on the aggregate path are served from the
// ledger's memo (see the Ledger doc); off-coverage hypotheticals and the
// naive evaluator always compute.
func (l *Ledger) Benefit(j int, a Alloc) float64 {
	if !a.Allocated() {
		return 0
	}
	if l.naive {
		g, f := l.link(j, a)
		return l.benefit(j, a, g, f)
	}
	m := l.memo.Load()
	if m == nil {
		m = l.newMemo()
	}
	if uint(a.Channel) < uint(m.chans) {
		if k := m.find(l.in.Top.Coverage[j], j, a.Server); k >= 0 {
			c := int(l.covBase[j]) + k
			s := c*m.chans + a.Channel
			w, bit := m.bit(j, k, a.Channel)
			if *w&bit != 0 {
				return m.val[s]
			}
			g := l.covGain[c]
			b := l.benefit(j, a, g, l.interCellRow(j, a, l.aggRow(a.Server), g))
			m.val[s] = b
			*w |= bit
			return b
		}
	}
	g := l.in.GainAt(a.Server, j)
	return l.benefit(j, a, g, l.interCellRow(j, a, l.aggRow(a.Server), g))
}

// benefit evaluates Eq. (12) from the link quantities of decision a.
func (l *Ledger) benefit(j int, a Alloc, g float64, f units.Watts) float64 {
	p := float64(l.in.Top.Users[j].Power)
	intra := float64(l.intraOther(j, a)) + p // includes u_j per Eq. 12
	den := g*intra + float64(f)
	if den <= 0 {
		return 0
	}
	return g * p / den
}

// AvgRate evaluates Eq. (5) over the current profile: the mean rate over
// all M users (unallocated users contribute 0 per Eq. 4's indicator).
func (l *Ledger) AvgRate() units.Rate {
	if l.in.M() == 0 {
		return 0
	}
	var sum float64
	for j := range l.alloc {
		sum += float64(l.CurrentRate(j))
	}
	return units.Rate(sum / float64(l.in.M()))
}

// AvgRate evaluates Eq. (5) for an allocation profile from scratch.
func (in *Instance) AvgRate(alloc Allocation) units.Rate {
	return NewLedger(in, alloc).AvgRate()
}

// UserRate evaluates Eqs. (2)–(4) for one user from scratch.
func (in *Instance) UserRate(alloc Allocation, j int) units.Rate {
	l := NewLedger(in, alloc)
	return l.CurrentRate(j)
}
