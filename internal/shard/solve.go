package shard

import (
	"runtime"
	"sync"
	"time"

	"idde/internal/game"
	"idde/internal/model"
	"idde/internal/obs"
	"idde/internal/placement"
	"idde/internal/rng"
	"idde/internal/units"
)

// DefaultHaloRounds bounds the halo-exchange stage: at most this many
// full fixed-order sweeps over the tiles before the exchange stops,
// converged or not. The sweeps are bounded boundary repair, not a
// second solve: the first pass recovers nearly all of the rate gap the
// isolated tile games leave at tile boundaries and the second closes
// most of the remainder, while each extra pass costs a full
// best-response scan of every player against the global ledger. Two
// passes is the measured knee of that cost/quality curve; raise
// Config.HaloRounds when boundary quality matters more than wall time.
const DefaultHaloRounds = 2

// Config tunes the sharded solver. Game and Placement follow the same
// resolution rules as core.Options: a zero value (ignoring Obs) is
// replaced by the engine defaults, an explicitly configured all-zero
// value carries Set and passes through.
type Config struct {
	// Tiles is the target tile count (values < 1 mean 1; capped at N).
	Tiles int
	// HaloRounds caps the halo-exchange sweeps (0 = DefaultHaloRounds,
	// negative = no exchange at all).
	HaloRounds int
	// ReconcileCommits bounds the final global CELF re-commit pass (0 =
	// unlimited, negative = skip the extra pass; the replica replay that
	// rebuilds the oracle state always runs).
	ReconcileCommits int
	// NoSweepSkip disables the halo-exchange early exit that skips a
	// tile's repair sweep when no cross-tile commit since its last run
	// could have perturbed any of its players. The skip preserves the
	// fixpoint exactly (see runExchange); the flag exists for the
	// differential tests that pin that claim.
	NoSweepSkip bool
	// Workers caps concurrent tile workers (0 = GOMAXPROCS). The result
	// is independent of the cap: tiles write disjoint state and merge in
	// tile order.
	Workers int
	// Seed roots the per-tile rng streams (Tile t gets
	// rng.New(Seed).SplitN("tile", t)); the deterministic solver itself
	// draws nothing, the streams exist for stochastic per-tile policies
	// layered on top (and are exercised by the tests).
	Seed uint64

	// Game, Placement and the oracle/evaluator toggles mirror
	// core.Options and select the same code paths per tile.
	Game              game.Options
	Placement         placement.Options
	NaiveGreedy       bool
	NaiveInterference bool
	NaiveLatency      bool
	// CohortBatch is ignored: Phase 2 always runs the one cohort
	// oracle (model.CohortLatencyState) unless NaiveLatency is set.
	//
	// Deprecated: has no effect. It stays declared because the idbench
	// benchmark module sets it.
	CohortBatch bool
	// AggRowBudget is ignored: aggregate rows are built once and kept.
	//
	// Deprecated: has no effect. It stays declared because the idbench
	// benchmark module sets it.
	AggRowBudget int

	// Obs receives the solver telemetry. When a tracer is attached,
	// tile workers emit into per-worker tracer shards that are merged
	// deterministically into the main tracer after the workers join.
	Obs *obs.Scope
}

// Stats reports the sharding-specific accounting of one solve.
type Stats struct {
	// Tiles is the realized tile count (≤ the requested count when the
	// instance has fewer servers or indivisible components).
	Tiles int
	// MinTileServers/MaxTileServers and MinTileUsers/MaxTileUsers
	// describe the balance of the partition.
	MinTileServers, MaxTileServers int
	MinTileUsers, MaxTileUsers     int
	// FrontierServers counts servers whose footprint crosses a tile
	// boundary; HaloUsers counts users covered by at least one of them.
	FrontierServers int
	HaloUsers       int
	// SweepRounds counts executed halo-exchange passes; SweepUpdates
	// and SweepEvaluations aggregate the moves and Best calls they
	// committed. HaloConverged reports whether a full pass committed no
	// update (a block-coordinate fixpoint over all players) before the
	// round cap.
	SweepRounds      int
	SweepUpdates     int
	SweepEvaluations int
	HaloConverged    bool
	// SweepSkippedTiles counts tile repair runs the exchange skipped
	// because the tile was clean: it converged on its previous run and no
	// cross-tile commit since then touched a server covering any of its
	// players.
	SweepSkippedTiles int
	// ReconcileReplicas and ReconcileGain report the final global CELF
	// re-commit pass (zero for a single tile: the tile solve is already
	// globally greedy-optimal, so no candidate has positive gain).
	ReconcileReplicas int
	ReconcileGain     float64
}

// Result is a sharded solve outcome. For Tiles=1 every field that the
// global solver also produces is bit-identical to core.Solve's (pinned
// by the differential suite); GainEvaluations additionally counts the
// reconcile pass's seed scan.
type Result struct {
	Alloc    model.Allocation
	Delivery *model.Delivery
	// AvgRate is Eq. 5 under the final allocation, read from the
	// post-exchange ledger.
	AvgRate units.Rate
	// Phase1 aggregates the tile games (sweep dynamics are reported
	// separately in Stats, so a single-tile run's Phase1 matches the
	// global solver's exactly).
	Phase1 game.Stats
	// Replicas counts committed delivery decisions, tile passes plus
	// reconcile; GainEvaluations counts oracle calls the same way.
	Replicas        int
	GainEvaluations int
	// LatencyReduction sums the tile-local CELF gains and the reconcile
	// gains. Tile gains value a replica only for the tile's own users,
	// so for multi-tile runs this is an accounting of the greedy's own
	// objective, not the exact global ΔL — Eq. 9 quality is what
	// AvgLatency (computed by the caller from Alloc/Delivery) reports.
	LatencyReduction units.Seconds
	Stats            Stats

	// Stage wall-clock: tile Phase 1 workers, halo-exchange sweeps,
	// tile Phase 2 workers, reconcile pass.
	Phase1Time, SweepTime, Phase2Time, ReconcileTime time.Duration
}

// TileStream derives the labeled per-tile rng stream for tile t under
// the config's seed — the substrate for stochastic per-tile policies.
func (c Config) TileStream(t int) *rng.Stream {
	return rng.New(c.Seed).SplitN("tile", t)
}

// tileGame adapts one tile's slice of the IDDE-U game to the generic
// engine: players are the tile's owned users (ascending), decisions and
// benefits are evaluated on the given ledger, and the dirty-set
// neighbourhood is the Covered lists filtered to the tile's players.
// cov holds the per-user decision lists Best enumerates — the full
// Coverage lists for a single tile (making that run bit-identical to
// the global solver), the tile-restricted lists for T>1 (users only
// consider their own tile's servers; ownership is nearest-covering, so
// those are exactly the high-gain ones).
type tileGame struct {
	in      *model.Instance
	l       *model.Ledger
	players []int
	// cov[j] lists the servers user j may allocate to.
	cov [][]int
	// local maps a global user id to its player index + 1 (0 = not a
	// player of this game). Shared read-only across the run.
	local []int32
	aff   []int
}

func (g *tileGame) NumPlayers() int { return len(g.players) }

func (g *tileGame) Best(p int) (model.Alloc, float64, float64) {
	j := g.players[p]
	cur := g.l.Current(j)
	curB := g.l.Benefit(j, cur)
	best, bestB := cur, curB
	for _, i := range g.cov[j] {
		for x := 0; x < g.in.Top.Servers[i].Channels; x++ {
			a := model.Alloc{Server: i, Channel: x}
			if a == cur {
				continue
			}
			if b := g.l.Benefit(j, a); b > bestB {
				best, bestB = a, b
			}
		}
	}
	return best, bestB, curB
}

func (g *tileGame) Apply(p int, a model.Alloc) { g.l.Move(g.players[p], a) }

// Affected filters the perturbed-user sets (covered by the source and
// destination servers) down to this game's players, preserving the
// global order — with all users as players the pending sequence matches
// core's allocGame bit for bit.
func (g *tileGame) Affected(p int, a model.Alloc) []int {
	aff := g.aff[:0]
	j := g.players[p]
	cur := g.l.Current(j)
	if cur.Allocated() {
		for _, q := range g.in.Top.Covered[cur.Server] {
			if li := g.local[q]; li > 0 {
				aff = append(aff, int(li-1))
			}
		}
	}
	if a.Allocated() && (!cur.Allocated() || a.Server != cur.Server) {
		for _, q := range g.in.Top.Covered[a.Server] {
			if li := g.local[q]; li > 0 {
				aff = append(aff, int(li-1))
			}
		}
	}
	g.aff = aff
	return aff
}

// RoundMetrics reports the tile ledger's Eq. 5 average rate on traced
// rounds (over all M users; unowned users are unallocated in a tile
// ledger and contribute zero).
func (g *tileGame) RoundMetrics(put func(key string, v float64)) {
	put("r_avg", float64(g.l.AvgRate()))
}

// restrictedCoverage filters every user's Coverage list down to the
// servers of the user's own tile — the decision sets of the sharded
// Phase 1 and of the halo-exchange sweeps. Ownership is
// nearest-covering-server, so the restricted list always contains the
// user's best-gain server (and is empty exactly when the user is
// covered by nobody and can never allocate anyway).
func restrictedCoverage(in *model.Instance, p *Partition) [][]int {
	cov := make([][]int, in.M())
	for j := 0; j < in.M(); j++ {
		t := p.Owner[j]
		full := in.Top.Coverage[j]
		keep := make([]int, 0, len(full))
		for _, i := range full {
			if p.ServerTile[i] == t {
				keep = append(keep, i)
			}
		}
		cov[j] = keep
	}
	return cov
}

// tileView is a shallow sub-instance for one tile's Phase 1: the
// topology's Coverage lists are replaced by the tile-restricted ones
// (empty for users the tile does not own) and the Covered lists are
// filtered to the tile's own users. Positions, distances, gains, radio
// and workload are shared with the full instance, so every quantity the
// tile game evaluates is arithmetically identical to evaluating it on
// the full instance — out-of-tile servers hold no occupants in a tile
// ledger, so skipping their (all-zero) interference cells changes no
// sum, it only stops paying O(|V_j|) for terms that are identically
// zero. The aggregate rows of a ledger over this view shrink the same
// way: row width covers in-tile sources only.
func tileView(in *model.Instance, p *Partition, t int, restricted [][]int) *model.Instance {
	top := *in.Top
	top.Coverage = make([][]int, in.M())
	for _, j := range p.Tiles[t].Users {
		top.Coverage[j] = restricted[j]
	}
	top.Covered = make([][]int, in.N())
	for _, i := range p.Tiles[t].Servers {
		full := in.Top.Covered[i]
		keep := make([]int, 0, len(full))
		for _, j := range full {
			if p.Owner[j] == int32(t) {
				keep = append(keep, j)
			}
		}
		top.Covered[i] = keep
	}
	in2 := *in
	in2.Top = &top
	return &in2
}

// Views materializes the restricted sub-instances the tile phase solves
// over, in tile order. Tests use them to pin the tile games' interior
// hot path — Ledger.Benefit over a tile view — at zero steady-state
// allocations and to inspect what a tile actually sees.
func Views(in *model.Instance, tiles int) []*model.Instance {
	p := MakePartition(in, tiles)
	restricted := restrictedCoverage(in, p)
	out := make([]*model.Instance, len(p.Tiles))
	for t := range p.Tiles {
		out[t] = tileView(in, p, t, restricted)
	}
	return out
}

// Solve runs the sharded two-phase solver.
func Solve(in *model.Instance, cfg Config) *Result {
	cfg.Game = cfg.Game.Resolve()
	cfg.Placement = cfg.Placement.Resolve()
	sc := cfg.Obs
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	p := MakePartition(in, cfg.Tiles)
	T := len(p.Tiles)
	res := &Result{Stats: statsOf(p)}

	// local[q] = player index within q's owning tile, +1.
	local := make([]int32, in.M())
	for _, tile := range p.Tiles {
		for idx, j := range tile.Users {
			local[j] = int32(idx + 1)
		}
	}

	// Per-tile tracer shards: workers emit into their own tracer, the
	// merge is deterministic (tick, shard) order after the join.
	var shards *obs.TracerShards
	if sc.Tracing() {
		shards = obs.NewTracerShards(T)
	}
	tileScope := func(t int) *obs.Scope {
		if shards != nil {
			return sc.WithTracer(shards.Shard(t))
		}
		return sc.WithTracer(nil) // metrics-only: shared atomic registry
	}

	// ---- Phase 1: per-tile best-response games on per-tile ledgers.
	// For T>1 each tile runs on its restricted sub-instance view: moves
	// are confined to own-tile servers and every evaluation walks only
	// in-tile coverage — the out-of-tile interference terms a full walk
	// would add are identically zero on an isolated tile ledger, so the
	// view changes no arithmetic, only the per-evaluation cost (and the
	// aggregate-row footprint) by roughly the squared in-tile coverage
	// fraction. A single tile runs on the instance itself, bit-identical
	// to the global solver.
	var restricted [][]int
	if T > 1 {
		restricted = restrictedCoverage(in, p)
	}
	sc.Begin("solve", "phase1", nil)
	t0 := time.Now()
	ledgers := make([]*model.Ledger, T)
	stats := make([]game.Stats, T)
	runTiles(T, workers, func(t int) {
		tsc := tileScope(t)
		view := in
		if T > 1 {
			view = tileView(in, p, t, restricted)
		}
		l := model.NewLedger(view, model.NewAllocation(in.M()))
		if cfg.NaiveInterference {
			l.SetNaiveInterference(true)
		}
		ledgers[t] = l
		if tsc.Tracing() {
			tsc.Begin("shard", "tile_phase1", map[string]any{
				"tile": t, "servers": len(p.Tiles[t].Servers), "users": len(p.Tiles[t].Users),
			})
		}
		opt := cfg.Game
		opt.Obs = tsc
		stats[t] = game.Run[model.Alloc](&tileGame{
			in: view, l: l, players: p.Tiles[t].Users, cov: view.Top.Coverage, local: local,
		}, opt)
		if tsc.Tracing() {
			tsc.End("shard", "tile_phase1")
		}
	})
	for _, st := range stats {
		res.Phase1.Rounds += st.Rounds
		res.Phase1.Updates += st.Updates
		res.Phase1.Evaluations += st.Evaluations
		res.Phase1.Frozen += st.Frozen
	}
	res.Phase1.Converged = true
	for _, st := range stats {
		res.Phase1.Converged = res.Phase1.Converged && st.Converged
	}
	res.Phase1Time = time.Since(t0)
	if shards != nil {
		shards.MergeInto(sc.Tracer())
		shards = nil
	}
	sc.End("solve", "phase1")

	// ---- Halo exchange: merge the tile equilibria onto one global
	// ledger and re-equilibrate in fixed tile order until a full pass
	// commits nothing (block-coordinate fixpoint) or the round cap.
	t1 := time.Now()
	var haloLedger *model.Ledger
	if T == 1 {
		// The single tile's ledger is already global state — reusing it
		// keeps AvgRate bit-identical to the unsharded solver.
		haloLedger = ledgers[0]
		res.Stats.HaloConverged = true
	} else {
		merged := model.NewAllocation(in.M())
		for t, l := range ledgers {
			for _, j := range p.Tiles[t].Users {
				merged[j] = l.Current(j)
			}
		}
		haloLedger = model.NewLedger(in, merged)
		if cfg.NaiveInterference {
			haloLedger.SetNaiveInterference(true)
		}
		ledgers = nil // tile ledgers (rows, memos) are dead: release
		res.Stats.HaloConverged = runExchange(in, p, haloLedger, restricted, cfg, sc, &res.Stats)
	}
	res.SweepTime = time.Since(t1)
	res.Alloc = haloLedger.Alloc()
	res.AvgRate = haloLedger.AvgRate()

	// ---- Phase 2: per-tile CELF over tile servers × items requested
	// by tile users, against the frozen global allocation.
	sc.Begin("solve", "phase2", nil)
	t2 := time.Now()
	if sc.Tracing() {
		shards = obs.NewTracerShards(T)
	}
	deliveries := make([]*model.Delivery, T)
	presults := make([]placement.Result, T)
	runTiles(T, workers, func(t int) {
		tsc := tileScope(t)
		if tsc.Tracing() {
			tsc.Begin("shard", "tile_phase2", map[string]any{"tile": t})
		}
		deliveries[t], presults[t] = solveTileDelivery(in, p.Tiles[t], res.Alloc, cfg, tsc)
		if tsc.Tracing() {
			tsc.End("shard", "tile_phase2")
		}
	})
	delivery := model.NewDelivery(in.N(), in.K())
	for t, d := range deliveries {
		for _, i := range p.Tiles[t].Servers {
			for k := 0; k < in.K(); k++ {
				if d.Placed(i, k) {
					delivery.Place(i, k, in.Wl.Items[k].Size)
				}
			}
		}
		res.Replicas += len(presults[t].Chosen)
		res.GainEvaluations += presults[t].Evaluations
		res.LatencyReduction += units.Seconds(presults[t].TotalGain)
	}
	res.Phase2Time = time.Since(t2)
	if shards != nil {
		shards.MergeInto(sc.Tracer())
	}

	// ---- Reconcile: rebuild the oracle state globally (replaying the
	// merged replicas in ascending (server, item) order) and run one
	// bounded CELF pass over every remaining candidate, catching
	// replicas whose value is spread across tiles.
	t3 := time.Now()
	if cfg.ReconcileCommits >= 0 {
		rres := reconcile(in, res.Alloc, delivery, cfg, sc)
		res.Replicas += len(rres.Chosen)
		res.GainEvaluations += rres.Evaluations
		res.LatencyReduction += units.Seconds(rres.TotalGain)
		res.Stats.ReconcileReplicas = len(rres.Chosen)
		res.Stats.ReconcileGain = rres.TotalGain
	}
	res.ReconcileTime = time.Since(t3)
	sc.End("solve", "phase2")

	res.Delivery = delivery
	publishShardStats(sc, res)
	return res
}

// runTiles executes fn(t) for every tile on up to `workers` concurrent
// goroutines. Each tile writes only its own result slots, so the merge
// (in tile order, by the caller) is scheduling-independent.
func runTiles(tiles, workers int, fn func(t int)) {
	if workers < 1 {
		workers = 1
	}
	if workers == 1 || tiles == 1 {
		for t := 0; t < tiles; t++ {
			fn(t)
		}
		return
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for t := 0; t < tiles; t++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(t int) {
			defer wg.Done()
			fn(t)
			<-sem
		}(t)
	}
	wg.Wait()
}

// runExchange performs the halo-exchange sweeps: for each pass, every
// tile's players best-respond on the shared global ledger in tile
// order. Evaluations here see the true global occupancy (the full
// instance backs the ledger, so cross-tile interference enters every
// benefit), while decisions stay restricted to each user's own-tile
// servers — the same strategy space the tile games solved over. The
// first pass surfaces exactly the deviations induced by the cross-tile
// interference the isolated tile games could not see; subsequent passes
// propagate the ripples until a whole pass commits nothing — a
// fixpoint: no player can improve within its tile's servers — or the
// round cap hits. Reports whether the fixpoint was reached.
//
// The sweeps run under the engine's round-robin policy regardless of
// the configured Phase 1 policy: this is a repair stage, not the
// paper's Algorithm 1, and round-robin reaches the same fixed points (a
// converged pass means no player can improve) without paying the
// winner-takes-all cascade — one commit per round re-evaluating the
// whole perturbed neighbourhood — that would otherwise cost more than
// the tile solves saved.
// The early exit: a tile is "clean" when its last repair run reached the
// engine's fixpoint and no commit since then moved a user onto or off a
// server covering any of the tile's players — player q's Eq. 12 benefit
// reads only occupancy of servers in V_q, so such a tile would
// best-respond to an unchanged landscape and commit nothing. Skipping it
// drops the (large) no-op evaluation scan without changing a single
// commit, so the committed move sequence — and therefore the fixpoint —
// is bit-identical to the unskipped exchange (pinned by the differential
// tests; Config.NoSweepSkip forces the unskipped path). Dirty marking is
// conservative: after each tile run, every user whose allocation changed
// marks the owning tiles of all users covered by its old and new servers.
func runExchange(in *model.Instance, p *Partition, l *model.Ledger, restricted [][]int, cfg Config, sc *obs.Scope, st *Stats) bool {
	rounds := cfg.HaloRounds
	if rounds == 0 {
		rounds = DefaultHaloRounds
	}
	if rounds < 0 {
		return false
	}
	local := make([]int32, in.M())
	dirty := make([]bool, len(p.Tiles))
	for t := range dirty {
		dirty[t] = true
	}
	prev := make([]model.Alloc, 0, in.M())
	markCovered := func(s int, self int) {
		for _, q := range in.Top.Covered[s] {
			if t := p.Owner[q]; int(t) != self {
				dirty[t] = true
			}
		}
	}
	for sweep := 0; sweep < rounds; sweep++ {
		st.SweepRounds++
		updates := 0
		for ti, tile := range p.Tiles {
			if !dirty[ti] && !cfg.NoSweepSkip {
				st.SweepSkippedTiles++
				continue
			}
			for idx, j := range tile.Users {
				local[j] = int32(idx + 1)
			}
			prev = prev[:0]
			for _, j := range tile.Users {
				prev = append(prev, l.Current(j))
			}
			opt := cfg.Game
			opt.Policy = game.RoundRobin
			opt.Obs = sc
			gs := game.Run[model.Alloc](&tileGame{
				in: in, l: l, players: tile.Users, cov: restricted, local: local,
			}, opt)
			updates += gs.Updates
			st.SweepUpdates += gs.Updates
			st.SweepEvaluations += gs.Evaluations
			// Clean only on a true fixpoint: a run that "converged" with
			// frozen players (engine per-player move caps) is not one —
			// the next run hands those players fresh budgets and they
			// move again, so such a tile must stay dirty.
			dirty[ti] = !gs.Converged || gs.Frozen > 0
			for idx, j := range tile.Users {
				cur := l.Current(j)
				if cur == prev[idx] {
					continue
				}
				if prev[idx].Allocated() {
					markCovered(prev[idx].Server, ti)
				}
				if cur.Allocated() && (!prev[idx].Allocated() || cur.Server != prev[idx].Server) {
					markCovered(cur.Server, ti)
				}
			}
			for _, j := range tile.Users {
				local[j] = 0
			}
		}
		if sc.Tracing() {
			sc.Instant("shard", "sweep", map[string]any{
				"sweep": sweep, "updates": updates, "halo_users": len(p.Halo),
			})
		}
		if updates == 0 {
			// Ran tiles committed nothing and skipped tiles were clean —
			// by the skip argument every player is best-responding, a
			// block-coordinate fixpoint.
			return true
		}
	}
	return false
}

// solveTileDelivery runs Phase 2 for one tile through the shared
// placement.Deliver driver, over a shallow instance whose requests are
// filtered to the tile's users, with candidates restricted to the
// tile's servers. Tiles partition the servers, so capacity conflicts
// across tiles are impossible by construction.
func solveTileDelivery(in *model.Instance, tile Tile, alloc model.Allocation, cfg Config, sc *obs.Scope) (*model.Delivery, placement.Result) {
	d := model.NewDelivery(in.N(), in.K())
	eng := cfg.Placement
	eng.Obs = sc
	return d, placement.Deliver(placement.DeliverySpec{
		In: tileInstance(in, tile), Alloc: alloc, Delivery: d, Servers: tile.Servers,
		NaiveLatency: cfg.NaiveLatency, NaiveGreedy: cfg.NaiveGreedy,
		Engine: eng,
	})
}

// tileInstance is a shallow view of the instance with the request lists
// of users the tile does not own blanked out: topology, gains, items
// and capacities are shared, so latency arithmetic is bit-identical to
// the global oracle's for the tile's own users.
func tileInstance(in *model.Instance, tile Tile) *model.Instance {
	reqs := make([][]int, in.M())
	for _, j := range tile.Users {
		reqs[j] = in.Wl.Requests[j]
	}
	wl := *in.Wl
	wl.Requests = reqs
	in2 := *in
	in2.Wl = &wl
	return &in2
}

// reconcile runs one bounded global Phase 2 pass over the merged
// delivery d: the driver replays the merged replicas in ascending
// (server, item) order, a canonical order independent of which tile
// placed them, then proposes every remaining candidate. For a single
// tile the replayed profile is exactly the tile greedy's output, so no
// remaining candidate has positive gain and the pass commits nothing.
func reconcile(in *model.Instance, alloc model.Allocation, d *model.Delivery, cfg Config, sc *obs.Scope) placement.Result {
	eng := cfg.Placement
	eng.Obs = sc
	eng.MaxCommits = cfg.ReconcileCommits
	return placement.Deliver(placement.DeliverySpec{
		In: in, Alloc: alloc, Delivery: d,
		NaiveLatency: cfg.NaiveLatency, NaiveGreedy: cfg.NaiveGreedy,
		Engine: eng,
	})
}

// statsOf summarizes a partition into the Stats shell.
func statsOf(p *Partition) Stats {
	st := Stats{Tiles: len(p.Tiles)}
	for t, tile := range p.Tiles {
		if t == 0 || len(tile.Servers) < st.MinTileServers {
			st.MinTileServers = len(tile.Servers)
		}
		if len(tile.Servers) > st.MaxTileServers {
			st.MaxTileServers = len(tile.Servers)
		}
		if t == 0 || len(tile.Users) < st.MinTileUsers {
			st.MinTileUsers = len(tile.Users)
		}
		if len(tile.Users) > st.MaxTileUsers {
			st.MaxTileUsers = len(tile.Users)
		}
	}
	st.FrontierServers = p.NumFrontier()
	st.HaloUsers = len(p.Halo)
	return st
}

// publishShardStats cross-wires the shard accounting into the scope's
// registry, mirroring the engines' publish helpers.
func publishShardStats(sc *obs.Scope, res *Result) {
	if !sc.Enabled() {
		return
	}
	sc.Count("shard_solves_total", 1)
	sc.SetGauge("shard_last_tiles", float64(res.Stats.Tiles))
	sc.SetGauge("shard_last_halo_users", float64(res.Stats.HaloUsers))
	sc.SetGauge("shard_last_frontier_servers", float64(res.Stats.FrontierServers))
	sc.Count("shard_sweep_rounds_total", int64(res.Stats.SweepRounds))
	sc.Count("shard_sweep_updates_total", int64(res.Stats.SweepUpdates))
	sc.Count("shard_sweep_skipped_tiles_total", int64(res.Stats.SweepSkippedTiles))
	sc.Count("shard_reconcile_replicas_total", int64(res.Stats.ReconcileReplicas))
	if res.Stats.HaloConverged {
		sc.Count("shard_halo_converged_total", 1)
	}
}
