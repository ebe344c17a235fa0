package main

import (
	"time"

	"idde/internal/game"
	"idde/internal/model"
	"idde/internal/shard"
)

// phase1Clock accumulates the outside-in Phase 1 layer timings. The
// engine calls Best concurrently for distinct players and never for the
// same player twice in one fan-out, so the per-player slots need no
// lock; Apply and Affected run on the engine's serialized path.
type phase1Clock struct {
	bestNs       []int64
	benefitCalls []int64
	moveNs       int64
	affectedNs   int64
	moves        int64
}

func (c *phase1Clock) bestBusy() time.Duration {
	var s int64
	for _, v := range c.bestNs {
		s += v
	}
	return time.Duration(s)
}

func (c *phase1Clock) benefits() int64 {
	var s int64
	for _, v := range c.benefitCalls {
		s += v
	}
	return s
}

// tracedGame mirrors the IDDE-U Phase 1 adapters of internal/core (the
// global game: every user is a player) and internal/shard (a tile game:
// the tile's users over its restricted view) using only the public
// model.Ledger API, and times each call the engine makes into it. The
// decisions, tie-breaks and affected sets are the same as the mirrored
// adapters', so game.Run commits the same move sequence; the identity
// gate in trace.go checks that on every traced run.
type tracedGame struct {
	in      *model.Instance
	l       *model.Ledger
	players []int
	// local maps a user to its player index + 1 (0 = not a player); nil
	// for the global game, where player p is user p.
	local []int32
	aff   []int
	clk   *phase1Clock
}

func newGlobalGame(in *model.Instance, l *model.Ledger, clk *phase1Clock) *tracedGame {
	players := make([]int, in.M())
	for j := range players {
		players[j] = j
	}
	clk.bestNs = make([]int64, len(players))
	clk.benefitCalls = make([]int64, len(players))
	return &tracedGame{in: in, l: l, players: players, clk: clk}
}

func newTileGame(view *model.Instance, l *model.Ledger, users []int, local []int32, clk *phase1Clock) *tracedGame {
	clk.bestNs = make([]int64, len(users))
	clk.benefitCalls = make([]int64, len(users))
	return &tracedGame{in: view, l: l, players: users, local: local, clk: clk}
}

func (g *tracedGame) NumPlayers() int { return len(g.players) }

func (g *tracedGame) Best(p int) (model.Alloc, float64, float64) {
	t0 := time.Now()
	j := g.players[p]
	cur := g.l.Current(j)
	curB := g.l.Benefit(j, cur)
	calls := int64(1)
	best, bestB := cur, curB
	for _, i := range g.in.Top.Coverage[j] {
		for x := 0; x < g.in.Top.Servers[i].Channels; x++ {
			a := model.Alloc{Server: i, Channel: x}
			if a == cur {
				continue
			}
			calls++
			if b := g.l.Benefit(j, a); b > bestB {
				best, bestB = a, b
			}
		}
	}
	g.clk.benefitCalls[p] += calls
	g.clk.bestNs[p] += int64(time.Since(t0))
	return best, bestB, curB
}

func (g *tracedGame) Apply(p int, a model.Alloc) {
	t0 := time.Now()
	g.l.Move(g.players[p], a)
	g.clk.moveNs += int64(time.Since(t0))
	g.clk.moves++
}

// Affected reports the players covered by the mover's source and
// destination servers, in the mirrored adapters' order.
func (g *tracedGame) Affected(p int, a model.Alloc) []int {
	t0 := time.Now()
	aff := g.aff[:0]
	cur := g.l.Current(g.players[p])
	add := func(server int) {
		if g.local == nil {
			aff = append(aff, g.in.Top.Covered[server]...)
			return
		}
		for _, q := range g.in.Top.Covered[server] {
			if li := g.local[q]; li > 0 {
				aff = append(aff, int(li-1))
			}
		}
	}
	if cur.Allocated() {
		add(cur.Server)
	}
	if a.Allocated() && (!cur.Allocated() || a.Server != cur.Server) {
		add(a.Server)
	}
	g.aff = aff
	g.clk.affectedNs += int64(time.Since(t0))
	return aff
}

// phase1Run is one traced Phase 1: the merged allocation and stats, the
// engine wall time and the layer clock.
type phase1Run struct {
	alloc model.Allocation
	stats game.Stats
	runT  time.Duration
	aggMB float64
	clk   phase1Clock
	// ledger is the global game's ledger (nil for tile games).
	ledger *model.Ledger
}

// tracedGlobalPhase1 mirrors core.SolvePhase1.
func tracedGlobalPhase1(in *model.Instance, opt game.Options) *phase1Run {
	r := &phase1Run{ledger: model.NewLedger(in, model.NewAllocation(in.M()))}
	g := newGlobalGame(in, r.ledger, &r.clk)
	t0 := time.Now()
	r.stats = game.Run[model.Alloc](g, opt)
	r.runT = time.Since(t0)
	r.alloc = r.ledger.Alloc()
	r.aggMB = float64(r.ledger.AggMemStats().ArenaBytes) / (1 << 20)
	return r
}

// tracedTilePhase1 mirrors the tile stage of shard.Solve (T > 1): one
// game per tile on its restricted view, run here one tile after the
// other. Stats are summed as shard.Result.Phase1 sums them.
func tracedTilePhase1(in *model.Instance, tiles int, opt game.Options) *phase1Run {
	p := shard.MakePartition(in, tiles)
	views := shard.Views(in, tiles)
	local := make([]int32, in.M())
	for _, tile := range p.Tiles {
		for idx, j := range tile.Users {
			local[j] = int32(idx + 1)
		}
	}
	r := &phase1Run{alloc: model.NewAllocation(in.M())}
	r.stats.Converged = true
	for t, tile := range p.Tiles {
		l := model.NewLedger(views[t], model.NewAllocation(in.M()))
		var clk phase1Clock
		g := newTileGame(views[t], l, tile.Users, local, &clk)
		t0 := time.Now()
		st := game.Run[model.Alloc](g, opt)
		r.runT += time.Since(t0)
		r.stats.Rounds += st.Rounds
		r.stats.Updates += st.Updates
		r.stats.Evaluations += st.Evaluations
		r.stats.Frozen += st.Frozen
		r.stats.Converged = r.stats.Converged && st.Converged
		for _, j := range tile.Users {
			r.alloc[j] = l.Current(j)
		}
		r.aggMB += float64(l.AggMemStats().ArenaBytes) / (1 << 20)
		r.clk.bestNs = append(r.clk.bestNs, clk.bestNs...)
		r.clk.benefitCalls = append(r.clk.benefitCalls, clk.benefitCalls...)
		r.clk.moveNs += clk.moveNs
		r.clk.affectedNs += clk.affectedNs
		r.clk.moves += clk.moves
	}
	return r
}
