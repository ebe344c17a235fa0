// Package serve is the resilient serving data plane in front of the
// IDDE solver: a round-based request loop that routes every user request
// to a replica according to the current (α, σ) strategy, wrapped in the
// resilience stack a production edge store needs — per-server circuit
// breakers (closed/open/half-open with seeded probe admission),
// deadline-budgeted retries with jittered exponential backoff, optional
// hedged second requests, per-server health scoring, and graceful
// degradation that falls back to the next-best replica and ultimately
// the cloud while recording the Eq. 17 latency/backhaul cost of every
// downgrade. A supervised background re-planner consumes degradation
// reports and heals the placement with repair.RepairDegraded (bounded
// re-equilibration waves plus bounded CELF re-commits), atomically
// swapping the routing plan.
//
// The engine runs on a virtual clock in rounds (ticks): each round's
// requests are evaluated one after another on the soak goroutine
// against an immutable snapshot (plan generation, breaker states, fault
// view), and all mutable state — breakers, health scores, degradation
// accounting, re-plan triggers — is folded at the round barrier in
// request order. Because every request outcome is a pure function of
// the snapshot and a per-request labeled rng split, outcomes are
// bit-identical for a fixed seed; wall-clock only ever appears in
// throughput accounting, never in an outcome.
//
// Fault injection is chaos-in-the-loop: a chaos.Campaign acts as the
// live fault timeline. Crossing one of its boundaries rebuilds the
// "fault view" — the degraded instance reality the attempts execute
// against — while the routing plan keeps pointing wherever it pointed,
// exactly the window in which breakers, retries and failover have to
// carry the traffic until the re-planner catches up.
package serve

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"idde/internal/chaos"
	"idde/internal/des"
	"idde/internal/model"
	"idde/internal/obs"
	"idde/internal/repair"
	"idde/internal/rng"
	"idde/internal/units"
)

// Options configures the serving engine.
type Options struct {
	// Seed drives every request draw, loss draw and probe draw.
	Seed uint64
	// RPS is the sustained request rate per virtual second (default 500).
	RPS int
	// Tick is the round length in virtual seconds (default 1).
	Tick units.Seconds
	// Duration is the soak length in virtual seconds (default 60).
	Duration units.Seconds
	// Deadline is the per-request latency budget; once a request's
	// accumulated virtual latency exceeds it, the request stops retrying
	// edges and finishes from the cloud (default 2s).
	Deadline units.Seconds
	// Jitter is the uniform jitter fraction applied to every backoff
	// delay, in [0,1]. The zero value means no jitter; a value outside
	// [0,1] is replaced by 0.5.
	Jitter float64
	// Hedge enables hedged requests: when the primary resolution's
	// latency exceeds this threshold, a second request to the next-best
	// replica is scored and the faster of the two wins. 0 disables
	// hedging (the deterministic-outcome reference mode).
	Hedge units.Seconds
	// Breaker tunes the per-server circuit breakers.
	Breaker BreakerConfig
	// ReplanDegradedFrac is the fraction of a round's requests that must
	// be degraded to trigger a re-plan between fault boundaries
	// (default 0.05).
	ReplanDegradedFrac float64
	// ReplanMinInterval is the bounded-staleness floor between
	// threshold-triggered re-plans, in virtual seconds (default 2).
	ReplanMinInterval units.Seconds
	// Waves bounds the repair re-equilibration (repair.Options.Waves).
	Waves int
	// Faults is the wired-hop loss/stall model in force during the soak.
	// When a Campaign is set, its Faults field is used instead unless
	// this one injects faults. MaxRetries bounds retries per source
	// visit after the first attempt (default 2); Backoff is the base
	// retry delay, doubling per attempt (default 2ms).
	Faults des.Faults
	// Campaign is the fault timeline (nil = healthy soak).
	Campaign *chaos.Campaign
	// AsyncReplan moves repair off the round loop onto a supervised
	// background goroutine. Swap timing then depends on wall clock, so
	// outcome determinism is waived; the live front-end uses it, the
	// soak benchmarks keep the default synchronous barrier re-plan.
	AsyncReplan bool
	// Pace sleeps each round to approximately real time (live mode).
	Pace bool
	// Obs receives the data plane's telemetry. nil disables all of it;
	// outcomes are identical either way.
	Obs *obs.Scope
	// SLO configures the burn-rate engine (availability + latency
	// objectives evaluated at every round barrier and per chaos epoch).
	// Disabled by default; outcomes are identical either way.
	SLO SLOOptions
	// FlightRate samples requests into the flight recorder with this
	// probability (deterministic, label-derived — see obs.FlightRecorder).
	// 0 disables the recorder entirely; outcomes and OutcomeHash are
	// identical at any rate.
	FlightRate float64
	// FlightCap bounds the flight recorder's exemplar ring (default 256).
	FlightCap int
	// FlightSink receives triggered flight dumps as JSONL (SLO burn-rate
	// crossings and breaker-open spikes). nil disables triggered dumps;
	// the ring remains readable via Engine.DumpFlight and GET /flight.
	FlightSink io.Writer

	// repairFn overrides repair.RepairDegraded in tests (panic
	// isolation, failure injection into the re-planner itself).
	repairFn func(ref, degraded *model.Instance, st model.Strategy, opt repair.Options) (model.Strategy, *repair.Report, error)
}

// withDefaults fills the zero fields.
func (o Options) withDefaults() Options {
	if o.RPS <= 0 {
		o.RPS = 500
	}
	if o.Tick <= 0 {
		o.Tick = 1
	}
	if o.Duration <= 0 {
		o.Duration = 60
	}
	if o.Deadline <= 0 {
		o.Deadline = 2
	}
	if o.Jitter < 0 || o.Jitter > 1 {
		o.Jitter = 0.5
	}
	o.Breaker = o.Breaker.withDefaults()
	if o.ReplanDegradedFrac <= 0 {
		o.ReplanDegradedFrac = 0.05
	}
	if o.ReplanMinInterval <= 0 {
		o.ReplanMinInterval = 2
	}
	if o.Waves <= 0 {
		o.Waves = 2
	}
	if o.Campaign != nil && !o.Faults.Enabled() {
		o.Faults = o.Campaign.Faults
	}
	if o.Faults.MaxRetries <= 0 {
		o.Faults.MaxRetries = 2
	}
	if o.Faults.Backoff <= 0 {
		o.Faults.Backoff = units.Seconds(0.002)
	}
	o.SLO = o.SLO.withDefaults(o.Deadline)
	if o.FlightCap <= 0 {
		o.FlightCap = 256
	}
	if o.repairFn == nil {
		o.repairFn = repair.RepairDegraded
	}
	return o
}

// RequestOutcome is one request's fully resolved result: where it was
// served from, what it cost, and how far it strayed from the plan.
type RequestOutcome struct {
	User, Item int
	// Served is the serving edge server, or -1 for the cloud.
	Served int
	// Intended is the plan's Eq. 8 choice, or -1 for the cloud.
	Intended int
	// Latency is the virtual completion latency, retries and backoff
	// included.
	Latency units.Seconds
	// Retries counts lost attempts that were re-sent; Failovers counts
	// sources abandoned after their retry budget.
	Retries, Failovers int
	Hedged             bool
	// CloudFallback marks a request that began on an edge source and
	// ended at the cloud; DeadlineExceeded marks a request that burned
	// its whole latency budget first.
	CloudFallback, DeadlineExceeded bool
	// Degraded marks any deviation from the plan's intent. LatencyDelta
	// is the Eq. 17-style cost of the downgrade: measured latency minus
	// the plan's intended latency. BackhaulMB is the cloud backhaul
	// traffic the downgrade caused (EDD-NSTE's cost of every
	// fallback-to-cloud decision).
	Degraded     bool
	LatencyDelta units.Seconds
	BackhaulMB   units.MegaBytes

	// visits holds (server, success) per source visit, folded into the
	// breakers in deterministic order at the round barrier.
	visits []visit
}

type visit struct {
	server int
	ok     bool
}

// view is the immutable per-round snapshot requests evaluate against.
type view struct {
	plan    *Plan
	fv      *model.Instance // fault view: the degraded reality
	brState []BreakerState
	opt     *Options
}

// Engine is the serving data plane. Create with NewEngine, drive with
// RunSoak (virtual-time, deterministic) or the HTTP front-end (live).
type Engine struct {
	opt     Options
	healthy *model.Instance
	plan    planHolder
	breaker []*Breaker
	sc      *obs.Scope

	// Flight recorder + SLO engine. flight is nil when FlightRate is 0
	// (the allocation-free disabled state); slos is empty when SLO is
	// disabled. sloMu guards slos/latHist/epoch accounting against the
	// live front-end's /slo reads racing the round barrier's writes.
	flight      *obs.FlightRecorder
	flightSink  io.Writer
	sloMu       sync.Mutex
	slos        []*obs.SLO // [0] availability, [1] latency
	latHist     *obs.Histogram
	epochStarts []units.Seconds
	epochCells  [][]epochCell // [slo][epoch]
	prevOpen    int
	flightDumps int64

	mu           sync.Mutex // guards campaign, fv, now, breakers, health, stats
	campaign     *chaos.Campaign
	fv           *model.Instance
	fvEmpty      bool
	lastDeg      repair.Degradation
	fvBuiltEpoch int // campaign epoch the fault view was built in
	now          units.Seconds
	health       []float64
	stats        engineStats
	lastPlanT    units.Seconds
}

// engineStats accumulates engine-lifetime counters (guarded by e.mu).
type engineStats struct {
	replans      int64
	replanPanics int64
	replanErrors int64
}

// NewEngine validates the boot strategy and builds the data plane.
func NewEngine(healthy *model.Instance, st model.Strategy, opt Options) (*Engine, error) {
	if err := healthy.Check(st); err != nil {
		return nil, fmt.Errorf("serve: boot strategy invalid: %w", err)
	}
	opt = opt.withDefaults()
	if opt.Campaign != nil {
		if err := opt.Campaign.Validate(healthy); err != nil {
			return nil, err
		}
	}
	e := &Engine{
		opt:     opt,
		healthy: healthy,
		sc:      opt.Obs,
		fv:      healthy,
		fvEmpty: true,
		health:  make([]float64, healthy.N()),
	}
	for i := range e.health {
		e.health[i] = 1
	}
	e.breaker = make([]*Breaker, healthy.N())
	for i := range e.breaker {
		e.breaker[i] = NewBreaker(opt.Breaker)
	}
	if opt.FlightRate > 0 {
		e.flight = obs.NewFlightRecorder(opt.FlightCap, opt.FlightRate, opt.Seed)
	}
	e.flightSink = opt.FlightSink
	if opt.SLO.Enabled {
		e.slos = []*obs.SLO{
			obs.NewSLO(obs.SLOConfig{Name: "availability", Target: opt.SLO.AvailabilityTarget}),
			obs.NewSLO(obs.SLOConfig{Name: "latency", Target: opt.SLO.LatencyTarget}),
		}
		e.latHist = &obs.Histogram{}
		e.epochCells = make([][]epochCell, len(e.slos))
		if opt.Campaign != nil {
			e.epochStarts = opt.Campaign.Boundaries()
		} else {
			e.epochStarts = []units.Seconds{0}
		}
	}
	e.campaign = opt.Campaign
	e.plan.store(newPlan(0, healthy, st))
	return e, nil
}

// Now reports the engine's virtual clock.
func (e *Engine) Now() units.Seconds {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}

// BreakerStates reports every server's breaker state at virtual time
// now.
func (e *Engine) BreakerStates(now units.Seconds) []BreakerState {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.breakerStatesLocked(now)
}

// breakerStatesLocked is BreakerStates for callers that hold e.mu.
func (e *Engine) breakerStatesLocked(now units.Seconds) []BreakerState {
	out := make([]BreakerState, len(e.breaker))
	for i, b := range e.breaker {
		out[i] = b.State(now)
	}
	return out
}

// Inject appends fault events to the live campaign at the engine's
// current virtual time. The soak loop picks the new boundary up at its
// next round. Used by the HTTP front-end's chaos hook.
func (e *Engine) Inject(evs ...chaos.Event) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	c := &chaos.Campaign{Name: "live"}
	if e.campaign != nil {
		c.Name = e.campaign.Name
		c.Faults = e.campaign.Faults
		c.Events = append(c.Events, e.campaign.Events...)
	}
	c.Events = append(c.Events, evs...)
	if err := c.Validate(e.healthy); err != nil {
		return err
	}
	e.campaign = c
	e.fv = nil // force a fault-view rebuild at the next boundary check
	return nil
}

// snapshotLocked rebuilds the fault view if the campaign's fault state
// changed since the last call, and returns the round's immutable view.
// recovered reports whether the change lifted any fault — the one fault
// transition the control plane is told about directly (a server
// re-registering), as opposed to onsets, which the data plane must
// discover through failures. Callers hold e.mu.
func (e *Engine) snapshotLocked(now units.Seconds) (v *view, recovered bool, err error) {
	if e.fv == nil || e.fvStale(now) {
		d := repair.Degradation{}
		if e.campaign != nil {
			d = e.campaign.DegradationAt(now)
		}
		recovered = faultLifted(e.lastDeg, d)
		if degradationEmpty(d) {
			e.fv = e.healthy
			e.fvEmpty = true
		} else {
			fv, derr := repair.Degrade(e.healthy, d)
			if derr != nil {
				return nil, false, fmt.Errorf("serve: fault view at %v: %w", now, derr)
			}
			e.fv = fv
			e.fvEmpty = false
		}
		e.lastDeg = d
		e.fvBuiltEpoch = e.campaign.EpochAt(now)
	}
	v = &view{
		plan:    e.plan.load(),
		fv:      e.fv,
		brState: e.breakerStatesLocked(now),
		opt:     &e.opt,
	}
	return v, recovered, nil
}

// faultLifted reports whether any fault present in old is gone in new:
// a failed server back up, a cut link restored, or a brownout eased.
func faultLifted(old, new repair.Degradation) bool {
	up := map[int]bool{}
	for _, s := range new.FailedServers {
		up[s] = true
	}
	for _, s := range old.FailedServers {
		if !up[s] {
			return true
		}
	}
	cut := map[[2]int]bool{}
	for _, l := range new.CutLinks {
		cut[l] = true
		cut[[2]int{l[1], l[0]}] = true
	}
	for _, l := range old.CutLinks {
		if !cut[l] {
			return true
		}
	}
	if old.CloudFactor != 0 && old.CloudFactor != 1 {
		if new.CloudFactor == 0 || new.CloudFactor == 1 || new.CloudFactor > old.CloudFactor {
			return true
		}
	}
	return false
}

// degradationEmpty reports whether d injects nothing.
func degradationEmpty(d repair.Degradation) bool {
	return len(d.FailedServers) == 0 && len(d.CutLinks) == 0 &&
		(d.CloudFactor == 0 || d.CloudFactor == 1)
}

// fvStale reports whether a campaign boundary was crossed since the
// fault view was built. Callers hold e.mu.
func (e *Engine) fvStale(now units.Seconds) bool {
	return e.campaign != nil && e.campaign.EpochAt(now) != e.fvBuiltEpoch
}

// evalRequest resolves one request against the snapshot. It is a pure
// function of (v, j, k, s): no shared state is read or written, so every
// request of a round sees the same snapshot and the fold can run after
// the whole round. The draw order within the stream is part of the
// determinism contract — do not reorder draws without regenerating
// baselines.
//
// The outcome is written into *out in place. out's visit list is reused
// as the new list's buffer (the previous round's list for the same slot:
// the fold is done with it), so a steady-state request appends its
// visits without allocating.
//
// rec, when non-nil, receives the request's flight record: the full
// attempt chain with the breaker state observed at each admission, the
// retries burned and deadline budget remaining per hop, hedge raced/won,
// and the Eq. 17 degradation pricing. Every instrumentation append is
// gated on rec, so the rec==nil path (sampling off, or an unsampled
// request) does exactly the work it did before the recorder existed.
func evalRequest(v *view, j, k int, s *rng.Stream, out *RequestOutcome, rec *obs.FlightRecord) {
	opt := v.opt
	plan := v.plan
	st := plan.Strategy
	// Zero in place, then set fields: a composite literal stored through
	// out is built in a temporary and block-copied (runtime.duffcopy,
	// ~7% of a serve-outage soak's CPU on a 2-vCPU Xeon).
	visits := out.visits[:0]
	*out = RequestOutcome{}
	out.User, out.Item, out.Served, out.Intended, out.visits = j, k, -1, -1, visits

	// The plan's intent, under the plan's own world view.
	intendedSrc, intendedEdge, intendedLat := plan.intent(j, k)
	if intendedEdge {
		out.Intended = intendedSrc
	}

	probeDraw := s.Float64() // one probe-admission draw per request

	a := st.Alloc[j]
	size := v.fv.Wl.Items[k].Size
	var latency units.Seconds

	// A dead attachment point means the user's wireless leg is gone in
	// reality: the request can only be served over the cloud path until
	// the re-planner re-attaches the user.
	attachmentDown := a.Allocated() && v.fv.Top.Servers[a.Server].Failed

	admit := func(o int) bool { return v.brState[o].admits(probeDraw) }

	// tried lists the sources visited so far; a request visits a few at
	// most, so a slice beats a map and stays off the heap.
	var triedBuf [8]int
	tried := triedBuf[:0]
	skip := func(o int) bool { return slices.Contains(tried, o) || !admit(o) }

	// hop appends one attempt to the flight record (no-op when the
	// request is unsampled). Call it after latency has absorbed the hop,
	// so BudgetMs is the deadline budget remaining once the hop is done.
	hop := func(server int, kind string, retries int, hopLat units.Seconds, ok bool) {
		if rec == nil {
			return
		}
		br := ""
		if server >= 0 {
			br = v.brState[server].String()
		}
		rec.Attempts = append(rec.Attempts, obs.FlightAttempt{
			Server: server, Kind: kind, Breaker: br, Retries: retries,
			LatencyMs: hopLat.Millis(), BudgetMs: (opt.Deadline - latency).Millis(), OK: ok,
		})
	}
	// hopKind classifies an edge hop: the first source visited is the
	// plan's Eq. 8 primary, every later one is an Eq. 8 failover hop.
	hopKind := func() string {
		if len(tried) > 0 {
			return "failover"
		}
		return "edge"
	}

	serveCloud := func() {
		cl := v.fv.CloudLatency(k)
		latency += cl
		out.Served = -1
		if len(tried) > 0 {
			out.CloudFallback = true
		}
		hop(-1, "cloud", 0, cl, true)
	}

	if !a.Allocated() || attachmentDown {
		serveCloud()
		out.Latency = latency
		finishOutcome(out, intendedEdge, intendedLat, size, attachmentDown)
		fillFlight(rec, out)
		return
	}

	dst := a.Server
	servedEdge := false
	for !servedEdge {
		src, viaEdge := plan.source(j, k, skip)
		if !viaEdge {
			serveCloud()
			break
		}
		kind := hopKind()
		if src == dst || st.Mode != model.Collaborative {
			// Replica at the attachment server (or over-the-air
			// delivery): no wired hop, so the wired fault model does not
			// apply — but the holder itself may be dead in reality.
			if v.fv.Top.Servers[src].Failed {
				out.visits = append(out.visits, visit{server: src, ok: false})
				out.Failovers++
				latency += opt.Faults.Backoff // connection-refused detection cost
				hop(src, kind, 0, opt.Faults.Backoff, false)
				tried = append(tried, src)
				continue
			}
			out.Served = src
			servedEdge = true
			out.visits = append(out.visits, visit{server: src, ok: true})
			hop(src, kind, 0, 0, true)
			break
		}

		// Wired transfer src→dst under the fault view.
		edgeLat := v.fv.EdgeLatency(k, src, dst)
		if v.fv.Top.Servers[src].Failed || math.IsInf(float64(edgeLat), 1) {
			// Dead source or unreachable path: fail fast, as a router
			// does on connection-refused / no-route — one failed visit,
			// no retries.
			out.visits = append(out.visits, visit{server: src, ok: false})
			out.Failovers++
			latency += opt.Faults.Backoff
			hop(src, kind, 0, opt.Faults.Backoff, false)
			tried = append(tried, src)
			continue
		}
		hopStart, retriesBefore := latency, out.Retries
		ok := false
		for attempt := 0; attempt <= opt.Faults.MaxRetries; attempt++ {
			attemptLat := edgeLat
			if opt.Faults.StallProb > 0 && s.Bool(opt.Faults.StallProb) {
				attemptLat += opt.Faults.StallTime
			}
			if !s.Bool(opt.Faults.LossProb) {
				latency += attemptLat
				ok = true
				break
			}
			// Loss detected at the end of the attempt: the time is spent
			// either way, then jittered exponential backoff.
			out.Retries++
			backoff := units.Seconds(float64(opt.Faults.Backoff) * math.Pow(2, float64(attempt)))
			backoff = units.Seconds(float64(backoff) * (1 + opt.Jitter*s.Float64()))
			latency += attemptLat + backoff
			if latency > opt.Deadline {
				out.DeadlineExceeded = true
				break
			}
		}
		hop(src, kind, out.Retries-retriesBefore, latency-hopStart, ok)
		if ok {
			out.Served = src
			servedEdge = true
			out.visits = append(out.visits, visit{server: src, ok: true})
			break
		}
		out.visits = append(out.visits, visit{server: src, ok: false})
		out.Failovers++
		tried = append(tried, src)
		if out.DeadlineExceeded {
			serveCloud()
			break
		}
	}

	// Hedging: when the resolved latency is already past the hedge
	// threshold, score a single shadow attempt at the next-best source
	// and take the faster outcome.
	if opt.Hedge > 0 && servedEdge && latency > opt.Hedge {
		tried = append(tried, out.Served)
		if hsrc, viaEdge := plan.source(j, k, skip); viaEdge {
			hLat := v.fv.EdgeLatency(k, hsrc, dst)
			if !v.fv.Top.Servers[hsrc].Failed && !math.IsInf(float64(hLat), 1) {
				if opt.Faults.StallProb > 0 && s.Bool(opt.Faults.StallProb) {
					hLat += opt.Faults.StallTime
				}
				won := false
				if !s.Bool(opt.Faults.LossProb) {
					total := opt.Hedge + hLat
					if total < latency {
						latency = total
						out.Served = hsrc
						out.Hedged = true
						won = true
						out.visits = append(out.visits, visit{server: hsrc, ok: true})
					}
				}
				if rec != nil {
					rec.Hedged = true // a shadow attempt was actually raced
					hop(hsrc, "hedge", 0, hLat, won)
				}
			}
		}
	}

	out.Latency = latency
	finishOutcome(out, intendedEdge, intendedLat, size, attachmentDown)
	fillFlight(rec, out)
}

// fillFlight copies the resolved outcome into the request's flight
// record. Round and Index were stamped by the sampler; Hedged/Attempts
// were accumulated along the way.
func fillFlight(rec *obs.FlightRecord, o *RequestOutcome) {
	if rec == nil {
		return
	}
	rec.User, rec.Item = o.User, o.Item
	rec.Intended, rec.Served = o.Intended, o.Served
	rec.Retries, rec.Failovers = o.Retries, o.Failovers
	if o.Hedged {
		rec.Hedged, rec.HedgeWon = true, true
	}
	rec.CloudFallback = o.CloudFallback
	rec.DeadlineExceeded = o.DeadlineExceeded
	rec.Degraded = o.Degraded
	rec.LatencyMs = o.Latency.Millis()
	rec.LatencyDeltaMs = o.LatencyDelta.Millis()
	rec.BackhaulMB = float64(o.BackhaulMB)
}

// finishOutcome derives the degradation accounting shared by every exit
// path: any deviation from the plan's intent is a degradation, priced by
// the latency delta over the plan's expectation plus the backhaul MB of
// an unplanned cloud fetch.
func finishOutcome(out *RequestOutcome, intendedEdge bool, intendedLat units.Seconds, size units.MegaBytes, attachmentDown bool) {
	servedCloud := out.Served < 0
	deviates := out.Served != out.Intended
	out.Degraded = deviates || out.CloudFallback || out.DeadlineExceeded || attachmentDown
	if out.Degraded {
		if d := out.Latency - intendedLat; d > 0 {
			out.LatencyDelta = d
		}
		if servedCloud && intendedEdge {
			out.BackhaulMB = size
		}
	}
}

// requestPairs flattens the workload's request matrix.
func requestPairs(in *model.Instance) [][2]int {
	var out [][2]int
	for j, items := range in.Wl.Requests {
		for _, k := range items {
			out = append(out, [2]int{j, k})
		}
	}
	return out
}

// Run builds an engine and executes the soak in one call — the main
// entry point for benchmarks, tests and the CLI's soak mode.
func Run(ctx context.Context, healthy *model.Instance, st model.Strategy, opt Options) (*SoakReport, error) {
	e, err := NewEngine(healthy, st, opt)
	if err != nil {
		return nil, err
	}
	return e.RunSoak(ctx)
}

// RunSoak drives the engine's round loop for Options.Duration of
// virtual time, returning the full soak accounting. Cancelling the
// context stops the soak at the next round barrier and returns the
// partial report with ctx's error; no goroutines are leaked either way.
func (e *Engine) RunSoak(ctx context.Context) (*SoakReport, error) {
	opt := e.opt
	pairs := requestPairs(e.healthy)
	if len(pairs) == 0 {
		return nil, fmt.Errorf("serve: workload has no requests")
	}
	root := rng.New(opt.Seed)
	reqStreams := root.Splitter("req")
	rounds := int(float64(opt.Duration) / float64(opt.Tick))
	if rounds < 1 {
		rounds = 1
	}
	perRound := int(float64(opt.RPS) * float64(opt.Tick))
	if perRound < 1 {
		perRound = 1
	}

	rep := newSoakReport(&opt, rounds, perRound)
	hash := newOutcomeHash()
	outcomes := make([]RequestOutcome, perRound)
	s := new(rng.Stream) // re-rooted per request: no per-request allocation

	var replanner *asyncReplanner
	if opt.AsyncReplan {
		replanner = startAsyncReplanner(e)
		defer replanner.stop()
	}

	e.sc.Begin("serve", "soak", map[string]any{
		"rounds": rounds, "per_round": perRound, "rps": opt.RPS,
	})
	defer e.sc.End("serve", "soak")
	wallStart := time.Now()

	var ctxErr error
	for r := 0; r < rounds; r++ {
		if err := ctx.Err(); err != nil {
			ctxErr = err
			break
		}
		now := units.Seconds(float64(r) * float64(opt.Tick))
		e.mu.Lock()
		e.now = now
		v, recovered, err := e.snapshotLocked(now)
		fvEmpty := e.fvEmpty
		e.mu.Unlock()
		if err != nil {
			return nil, err
		}

		// Recovery is the one fault transition the control plane hears
		// about directly (a server re-registering): re-plan to re-admit.
		// Fault *onsets* are deliberately not pushed — the data plane
		// discovers them through failures, breakers carry the traffic,
		// and the degraded-fraction trigger below heals the plan.
		if recovered && r > 0 {
			e.requestReplan(replanner, now, v.fv)
			if !opt.AsyncReplan {
				// The plan changed: rebuild the snapshot so this round
				// already routes on the re-admitted table.
				v = &view{plan: e.plan.load(), fv: v.fv, brState: v.brState, opt: v.opt}
			}
		}

		// Draw and evaluate the round's requests in request order. The
		// mix stream and the per-request streams are independent, so
		// interleaving their draws changes no outcome.
		rs := root.SplitN("round", r)
		base := r * perRound
		for i := range outcomes {
			p := pairs[rs.IntN(len(pairs))]
			reqStreams.Into(s, base+i)
			// The sampling decision hashes the stream's seed — a pure
			// function of the request index — so no rng draw is consumed
			// and outcomes are the same with sampling on or off.
			var rec *obs.FlightRecord
			if e.flight.Sample(s.Seed()) {
				rec = &obs.FlightRecord{Round: r, Index: i}
			}
			evalRequest(v, p[0], p[1], s, &outcomes[i], rec)
			if rec != nil {
				e.flight.Add(*rec)
			}
		}

		// Barrier fold, in request order: breakers, health, metrics,
		// degradation accounting, hash, flight merge, SLO burn rates.
		agg := e.foldRound(r, now, outcomes, &hash, rep)

		// Threshold-triggered re-plan under bounded staleness.
		if agg.degraded > 0 &&
			float64(agg.degraded)/float64(perRound) >= opt.ReplanDegradedFrac &&
			now-e.lastPlanTime() >= opt.ReplanMinInterval {
			e.requestReplan(replanner, now, v.fv)
		}

		rep.observeRound(r, now, agg, fvEmpty, e.plan.load().Epoch)

		if opt.Pace {
			elapsed := time.Since(wallStart)
			target := time.Duration(float64(r+1) * float64(opt.Tick) * float64(time.Second))
			if sleep := target - elapsed; sleep > 0 {
				select {
				case <-time.After(sleep):
				case <-ctx.Done():
				}
			}
		}
	}
	rep.finish(e, time.Since(wallStart), uint64(hash))
	return rep, ctxErr
}

// roundAgg is the deterministic fold of one round's outcomes.
type roundAgg struct {
	requests, degraded, retries, failovers int
	cloudFallbacks, deadlineExceeded       int
	hedged, cloudServed                    int
	open                                   int
	latencyOK                              int // requests at or under the latency SLO threshold
	latencyDeltaS                          float64
	backhaulMB                             float64
}

// foldRound folds the round's outcomes into the engine and report in
// request order. The fold is the only writer of breaker and health
// state during a soak, so the whole data plane stays deterministic.
// The latency histograms take the round's latencies as one batch.
func (e *Engine) foldRound(r int, now units.Seconds, outcomes []RequestOutcome, hash *outcomeHash, rep *SoakReport) roundAgg {
	const healthGamma = 0.05
	var agg roundAgg
	end := now + e.opt.Tick
	e.mu.Lock() // breakers and health are read by GET /state
	for i := range outcomes {
		o := &outcomes[i]
		agg.requests++
		agg.retries += o.Retries
		agg.failovers += o.Failovers
		if o.CloudFallback {
			agg.cloudFallbacks++
		}
		if o.DeadlineExceeded {
			agg.deadlineExceeded++
		}
		if o.Hedged {
			agg.hedged++
		}
		if o.Served < 0 {
			agg.cloudServed++
		}
		if o.Latency <= e.opt.SLO.LatencyThreshold {
			agg.latencyOK++
		}
		if o.Degraded {
			agg.degraded++
			agg.latencyDeltaS += float64(o.LatencyDelta)
			agg.backhaulMB += float64(o.BackhaulMB)
		}
		for _, vs := range o.visits {
			e.breaker[vs.server].Record(end, vs.ok)
			h := e.health[vs.server]
			target := 0.0
			if vs.ok {
				target = 1
			}
			e.health[vs.server] = (1-healthGamma)*h + healthGamma*target
		}
		rep.observeOutcome(o)
		writeOutcomeHash(hash, r, i, o)
	}
	for _, b := range e.breaker {
		if b.State(end) == Open {
			agg.open++
		}
	}
	e.mu.Unlock()
	lat := rep.roundLatencies()

	// Flight merge + SLO burn rates, then triggered dumps. The merge is
	// the only point records enter the ring, and the only point eviction
	// happens.
	e.flight.MergeRound()
	reasons := e.observeSLOs(now, agg, lat)
	if agg.open > e.prevOpen {
		reasons = append(reasons, "breaker-spike")
	}
	e.prevOpen = agg.open
	if len(reasons) > 0 && e.flight != nil && e.flightSink != nil {
		if err := e.flight.WriteDump(e.flightSink, strings.Join(reasons, "+"), r, float64(now)); err == nil {
			e.flightDumps++
		}
	}

	if sc := e.sc; sc.Enabled() {
		sc.Count("serve_requests_total", int64(agg.requests))
		sc.Count("serve_retries_total", int64(agg.retries))
		sc.Count("serve_failovers_total", int64(agg.failovers))
		sc.Count("serve_cloud_fallbacks_total", int64(agg.cloudFallbacks))
		sc.Count("serve_deadline_exceeded_total", int64(agg.deadlineExceeded))
		sc.Count("serve_hedges_total", int64(agg.hedged))
		sc.Count("serve_degraded_total", int64(agg.degraded))
		sc.Registry().Histogram("serve_request_latency_ms").ObserveAll(lat)
		sc.SetGauge("serve_breakers_open", float64(agg.open))
		sc.SetGauge("serve_plan_epoch", float64(e.plan.load().Epoch))
		minH := 1.0
		for _, h := range e.health {
			if h < minH {
				minH = h
			}
		}
		sc.SetGauge("serve_health_min", minH)
		if sc.Tracing() {
			sc.Instant("serve", "round", map[string]any{
				"round":     r,
				"requests":  agg.requests,
				"degraded":  agg.degraded,
				"retries":   agg.retries,
				"failovers": agg.failovers,
				"open":      agg.open,
			})
		}
	}
	return agg
}

// outcomeHash is the determinism fingerprint: 64-bit FNV-1a over the
// little-endian bytes of every outcome's words, folded word by word
// with rng.FNVWord so the barrier fold allocates nothing per request.
type outcomeHash uint64

func newOutcomeHash() outcomeHash { return rng.FNVOffset }

// put folds one word's eight little-endian bytes.
func (h *outcomeHash) put(v uint64) { *h = outcomeHash(rng.FNVWord(uint64(*h), v)) }

// writeOutcomeHash folds one outcome into the determinism fingerprint.
func writeOutcomeHash(h *outcomeHash, round, idx int, o *RequestOutcome) {
	h.put(uint64(round))
	h.put(uint64(idx))
	h.put(uint64(int64(o.Served)))
	h.put(math.Float64bits(float64(o.Latency)))
	h.put(uint64(o.Retries)<<32 | uint64(o.Failovers))
	flags := uint64(0)
	if o.Hedged {
		flags |= 1
	}
	if o.CloudFallback {
		flags |= 2
	}
	if o.DeadlineExceeded {
		flags |= 4
	}
	if o.Degraded {
		flags |= 8
	}
	h.put(flags)
}

// lastPlanTime reports when the plan last changed (virtual time).
func (e *Engine) lastPlanTime() units.Seconds {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastPlanT
}
