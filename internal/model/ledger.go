package model

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

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
// Rows live in a per-ledger span arena (see spanArena): the srcOff and
// vals slices of every row are views carved out of shared backing
// slabs, and evicted rows return their spans to a free list for exact
// reuse. SetAggRowBudget additionally bounds how many rows are resident
// at once: non-resident receivers are served by a per-cell fold that
// reproduces the row arithmetic bit for bit (see interCellFold), so the
// budget trades wall-clock for memory without perturbing a single
// result. Which rows happen to be resident depends on scheduling under
// concurrent scans, but never the values — every evaluator answer is
// identical across budgets, including 0 (unlimited).
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
	// co-covering receivers — the same set, by symmetry) and kept across
	// evictions, so a rebuild costs O(N + width·occupancy) instead of
	// re-deriving co-coverage from the Covered/Coverage lists
	// (O(|Covered[i]|·|V_j|)).
	srcSets []atomic.Pointer[aggSrcSet]

	// arenaVals/arenaOffs back the row spans; rowPool recycles the row
	// headers. All three are guarded by aggMu.
	arenaVals spanArena[float64]
	arenaOffs spanArena[int32]
	rowPool   []*aggRowData

	// aggBudget caps resident rows (0 = unlimited). aggResident tracks
	// the count; aggClock is the second-chance eviction hand; aggTouch
	// counts row misses per receiver for the promotion threshold;
	// aggGrace holds evicted rows whose spans are recycled only at the
	// next Move — a quiescent point by the Adapter contract — so
	// concurrent readers holding an evicted row keep reading intact
	// (and, between Moves, still current) values.
	aggBudget    int
	aggResident  atomic.Int32
	aggClock     int
	aggTouch     []atomic.Uint32
	aggGrace     []*aggRowData
	aggEvictions int64
	aggFallbacks atomic.Int64

	// everBuilt/everRows/everWidth record which receivers ever had a
	// row, for the dense-equivalent accounting of AggMemStats.
	everBuilt   []bool
	everRows    int
	everWidth   int64
	srcSetBytes int64

	// naive switches interCell to the O(occupancy) reference scan.
	naive bool
}

// NewLedger builds a ledger over a copy of the given profile.
func NewLedger(in *Instance, alloc Allocation) *Ledger {
	l := &Ledger{
		in:        in,
		alloc:     alloc.Clone(),
		users:     make([][][]int, in.N()),
		power:     make([][]units.Watts, in.N()),
		agg:       make([]atomic.Pointer[aggRowData], in.N()),
		srcSets:   make([]atomic.Pointer[aggSrcSet], in.N()),
		everBuilt: make([]bool, in.N()),
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
// down). The naive path exists for drift-sensitive debugging and as the
// perf-baseline reference. Like Move, it must not race with concurrent
// evaluations.
func (l *Ledger) SetNaiveInterference(on bool) {
	l.naive = on
	// Built rows go stale while the naive path runs (Move stops
	// maintaining them); release them so re-enabling rebuilds from
	// scratch out of the recycled spans.
	l.aggMu.Lock()
	defer l.aggMu.Unlock()
	for i := range l.agg {
		if d := l.agg[i].Load(); d != nil {
			l.agg[i].Store(nil)
			l.aggResident.Add(-1)
			l.aggGrace = append(l.aggGrace, d)
		}
	}
	l.drainGraceLocked()
}

// SetAggRowBudget bounds how many aggregate rows may be resident at
// once (0 = unlimited, the default). Evaluations against non-resident
// receivers fall back to a bit-identical per-cell fold, so every result
// is unchanged; only memory and wall-clock trade places. Must be called
// while no concurrent evaluations are in flight (setup time, or between
// game rounds).
func (l *Ledger) SetAggRowBudget(rows int) {
	if rows < 0 {
		rows = 0
	}
	l.aggMu.Lock()
	defer l.aggMu.Unlock()
	l.aggBudget = rows
	if rows > 0 && l.aggTouch == nil {
		l.aggTouch = make([]atomic.Uint32, l.in.N())
	}
	for rows > 0 && int(l.aggResident.Load()) > rows {
		l.evictLocked()
	}
	l.drainGraceLocked()
}

// Alloc returns a snapshot of the current profile.
func (l *Ledger) Alloc() Allocation { return l.alloc.Clone() }

// Current reports user j's current decision.
func (l *Ledger) Current(j int) Alloc { return l.alloc[j] }

// Occupancy reports how many users share channel x of server i.
func (l *Ledger) Occupancy(i, x int) int { return len(l.users[i][x]) }

// Move reassigns user j to decision a (possibly Unallocated),
// maintaining the channel registries and the resident aggregate rows of
// the receivers that co-cover the old or new server; a ledger with no
// resident row pays for the registries alone. Move must not race with
// concurrent evaluations (the game engine serializes Apply) — which
// also makes it the quiescent point where evicted rows' spans are safe
// to recycle.
func (l *Ledger) Move(j int, a Alloc) {
	cur := l.alloc[j]
	if cur == a {
		return
	}
	if len(l.aggGrace) > 0 {
		l.aggMu.Lock()
		l.drainGraceLocked()
		l.aggMu.Unlock()
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
// that can ever be paired with it by the Eq. 2 Coverage walk. Both
// slices are spans into the ledger's arena, released to its free list
// on eviction.
type aggRowData struct {
	// srcOff[o] is the offset of source o's channel block in vals, or
	// -1 when o never co-covers a user with the receiver. Such cells
	// are only reachable through off-coverage hypotheticals, which
	// interCell serves with a single-cell reference walk instead.
	srcOff []int32
	vals   []float64
	// ref is the second-chance bit read by the eviction clock; readers
	// set it on row hits while a budget is active.
	ref atomic.Bool
}

// aggRowHeaderBytes sizes one row header for the AggMemStats
// accounting.
var aggRowHeaderBytes = int64(unsafe.Sizeof(aggRowData{}))

// aggSrcSet is a receiver's co-covering source set (one bit per source)
// plus the total channel width of those sources.
type aggSrcSet struct {
	bits  []uint64
	width int32
}

func (s *aggSrcSet) has(o int) bool { return s.bits[o>>6]&(1<<(uint(o)&63)) != 0 }

// aggMove folds user j's contribution Gain[i][j]·p_j out of (from) and
// into (to) the resident receiver rows. Co-coverage is symmetric — row
// i has a cell for source o exactly when i ∈ srcSet(o) — so only the
// receivers in srcSet(from.Server) ∪ srcSet(to.Server) can hold a cell
// to update; every other row is left unread.
func (l *Ledger) aggMove(j int, from, to Alloc) {
	if l.naive || l.aggResident.Load() == 0 {
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

// buildRowLocked materializes receiver i's row out of the arena,
// filling every cell with the left-to-right fold over the current
// occupant lists (the aggMove invariant), so a rebuild after eviction
// is bit-identical to a row that was maintained all along. Caller holds
// aggMu.
func (l *Ledger) buildRowLocked(i int) *aggRowData {
	ss := l.srcSetLocked(i)
	var d *aggRowData
	if n := len(l.rowPool); n > 0 {
		d = l.rowPool[n-1]
		l.rowPool[n-1] = nil
		l.rowPool = l.rowPool[:n-1]
		d.ref.Store(false)
	} else {
		d = &aggRowData{}
	}
	d.srcOff = l.arenaOffs.alloc(l.in.N())
	d.vals = l.arenaVals.alloc(int(ss.width))
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
	if !l.everBuilt[i] {
		l.everBuilt[i] = true
		l.everRows++
		l.everWidth += int64(ss.width)
	}
	l.aggResident.Add(1)
	l.agg[i].Store(d)
	return d
}

// evictLocked detaches one resident row, chosen by a second-chance
// clock over the receiver indices, onto the grace list. The spans are
// recycled at the next Move, never immediately: a concurrent reader
// that loaded the row before the eviction keeps reading intact — and,
// since no Move has intervened, still current — values. Caller holds
// aggMu.
func (l *Ledger) evictLocked() {
	n := len(l.agg)
	for scanned := 0; scanned < 2*n; scanned++ {
		i := l.aggClock
		if l.aggClock++; l.aggClock == n {
			l.aggClock = 0
		}
		d := l.agg[i].Load()
		if d == nil {
			continue
		}
		if d.ref.Load() {
			d.ref.Store(false)
			continue
		}
		l.agg[i].Store(nil)
		l.aggResident.Add(-1)
		l.aggEvictions++
		l.aggGrace = append(l.aggGrace, d)
		return
	}
}

// drainGraceLocked releases evicted rows' spans back to the arena and
// their headers to the pool. Only called at quiescent points (Move,
// SetNaiveInterference, SetAggRowBudget). Caller holds aggMu.
func (l *Ledger) drainGraceLocked() {
	for idx, d := range l.aggGrace {
		l.arenaOffs.release(d.srcOff)
		l.arenaVals.release(d.vals)
		d.srcOff, d.vals = nil, nil
		l.rowPool = append(l.rowPool, d)
		l.aggGrace[idx] = nil
	}
	l.aggGrace = l.aggGrace[:0]
}

// aggRow returns the receiver-i aggregate row, building it on first use
// (and evicting a victim first when the resident budget is exhausted).
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
	if l.aggBudget > 0 && int(l.aggResident.Load()) >= l.aggBudget {
		l.evictLocked()
	}
	return l.buildRowLocked(i)
}

// aggPromoteAfter is the miss count at which a non-resident receiver is
// promoted to a row while the budget is full. Promotion costs a rebuild
// plus an eviction, i.e. many fold-fallback evaluations; the threshold
// keeps a one-off probe from thrashing a hot row out.
const aggPromoteAfter = 4

// aggFault handles a row miss under an active budget: build immediately
// while under budget, otherwise count the touch and promote only once
// the receiver has proven hot. Returns nil when the caller should use
// the fold fallback.
func (l *Ledger) aggFault(i int) *aggRowData {
	if int(l.aggResident.Load()) < l.aggBudget {
		return l.aggRow(i)
	}
	if t := l.aggTouch[i].Add(1); int(t) < aggPromoteAfter {
		return nil
	}
	l.aggTouch[i].Store(0)
	return l.aggRow(i)
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

// servingGain reports g = Gain[a.Server][j] and whether a.Server covers
// j. In-coverage gains come from the covGain table; off-coverage
// hypotheticals fall back to the instance lookup.
func (l *Ledger) servingGain(j int, a Alloc) (g float64, inCov bool) {
	for k, i := range l.in.Top.Coverage[j] {
		if i == a.Server {
			return l.covGain[int(l.covBase[j])+k], true
		}
	}
	return l.in.GainAt(a.Server, j), false
}

// link evaluates the two link quantities of Eq. (2) for user j under
// decision a: the serving gain g and the inter-cell interference F. The
// naive reference reads g from the instance, not the table, so the
// differential tests compare the table against the lookup too.
func (l *Ledger) link(j int, a Alloc) (float64, units.Watts) {
	if l.naive {
		return l.in.GainAt(a.Server, j), l.interCellNaive(j, a)
	}
	g, inCov := l.servingGain(j, a)
	return g, l.interCell(j, a, g, inCov)
}

// interCell computes F_{i,x,j} of Eq. (2): the interference measured at
// server i on channel x from users allocated to channel x of the *other*
// servers covering user j, under the hypothesis that j itself sits at
// (i,x) (so j never self-interferes). It reads one pre-aggregated sum
// per covering server — O(|V_j|) — and subtracts j's own contribution
// g·p_j where j currently occupies a summed channel. Under a row
// budget, misses on cold receivers are served by interCellFold instead
// of faulting the row in.
func (l *Ledger) interCell(j int, a Alloc, g float64, inCov bool) units.Watts {
	d := l.agg[a.Server].Load()
	if d == nil {
		if l.aggBudget > 0 {
			if d = l.aggFault(a.Server); d == nil {
				return l.interCellFold(j, a, g, inCov)
			}
		} else {
			d = l.aggRow(a.Server)
		}
	} else if l.aggBudget > 0 && !d.ref.Load() {
		d.ref.Store(true)
	}
	return l.interCellRow(j, a, d, g)
}

// interCellRow reads the Eq. 2 inter-cell term out of a resident row;
// g is Gain[a.Server][j], the weight of j's own contribution.
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

// interCellFold serves a row miss without materializing the row: each
// cell the row path would read is recomputed as the same left-to-right
// fold over users[o][x] that builds (and maintains) row cells, then
// added to the total — reproducing the row path's arithmetic, including
// the self-term subtraction, bit for bit. Every o in Coverage[j]
// co-covers j with a.Server whenever a.Server itself covers j, so the
// in-coverage case (every probe the game issues) maps one-to-one onto
// row cells; the off-coverage corner cannot distinguish present from
// absent cells locally and forces the row in instead.
func (l *Ledger) interCellFold(j int, a Alloc, g float64, inCov bool) units.Watts {
	if !inCov {
		return l.interCellRow(j, a, l.aggRow(a.Server), g)
	}
	l.aggFallbacks.Add(1)
	cur := l.alloc[j]
	gi := l.in.GainRow(a.Server)
	var f float64
	for _, o := range l.in.Top.Coverage[j] {
		if o == a.Server || a.Channel >= len(l.users[o]) {
			continue
		}
		var sum float64
		for _, t := range l.users[o][a.Channel] {
			sum += gi.At(t) * float64(l.in.Top.Users[t].Power)
		}
		f += sum
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

// WarmAggregates builds aggregate rows in ascending receiver order up
// to the resident budget (all of them when unlimited), so benchmarks
// and latency-sensitive callers can pay the build cost up front.
func (l *Ledger) WarmAggregates() {
	if l.naive {
		return
	}
	l.aggMu.Lock()
	defer l.aggMu.Unlock()
	for i := range l.agg {
		if l.aggBudget > 0 && int(l.aggResident.Load()) >= l.aggBudget {
			break
		}
		if l.agg[i].Load() != nil {
			continue
		}
		l.buildRowLocked(i)
	}
}

// AggMemStats is a snapshot of the aggregate-row memory accounting.
type AggMemStats struct {
	// ResidentRows counts rows currently materialized; EverBuiltRows
	// counts receivers that had a row at any point (the set the
	// unbounded layout would keep resident).
	ResidentRows  int
	EverBuiltRows int
	// RowBudget echoes SetAggRowBudget (0 = unlimited).
	RowBudget int
	// ArenaBytes is the backing-slab footprint (resident spans plus
	// free-list capacity) including the persistent co-source bitsets
	// and row headers; InUseBytes narrows to spans owned by resident
	// rows. DenseEquivBytes is what the unbounded layout would hold for
	// every ever-built receiver — the baseline the budget is measured
	// against.
	ArenaBytes      int64
	InUseBytes      int64
	DenseEquivBytes int64
	// Evictions counts budget-driven row detachments; FallbackEvals
	// counts interference evaluations served by the fold fallback.
	Evictions     int64
	FallbackEvals int64
	// MemoBytes is the Benefit memo's footprint (values, validity masks
	// and lookup hints; 0 until the first Benefit). It is not part of
	// ArenaBytes.
	MemoBytes int64
}

// AggMemStats reports the aggregate-row memory accounting. It must be
// called at a quiescent point (no concurrent evaluations): like Move,
// it first recycles the spans of evicted rows parked on the grace list,
// so the snapshot reflects what actually stays resident rather than
// eviction churn awaiting its next quiescent point.
func (l *Ledger) AggMemStats() AggMemStats {
	l.aggMu.Lock()
	defer l.aggMu.Unlock()
	l.drainGraceLocked()
	resident := int(l.aggResident.Load())
	headers := int64(resident + len(l.aggGrace) + len(l.rowPool))
	return AggMemStats{
		ResidentRows:  resident,
		EverBuiltRows: l.everRows,
		RowBudget:     l.aggBudget,
		ArenaBytes: int64(l.arenaVals.total)*8 + int64(l.arenaOffs.total)*4 +
			l.srcSetBytes + headers*aggRowHeaderBytes,
		InUseBytes: int64(l.arenaVals.inUse)*8 + int64(l.arenaOffs.inUse)*4 +
			l.srcSetBytes + int64(resident)*aggRowHeaderBytes,
		DenseEquivBytes: int64(l.everRows)*(int64(4*l.in.N())+aggRowHeaderBytes) +
			8*l.everWidth,
		Evictions:     l.aggEvictions,
		FallbackEvals: l.aggFallbacks.Load(),
		MemoBytes:     l.memoBytes(),
	}
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
	g, _ := l.servingGain(j, a)
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
			b := l.benefit(j, a, g, l.interCell(j, a, g, true))
			m.val[s] = b
			*w |= bit
			return b
		}
	}
	g := l.in.GainAt(a.Server, j)
	return l.benefit(j, a, g, l.interCell(j, a, g, false))
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
