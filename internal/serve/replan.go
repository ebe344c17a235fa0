package serve

import (
	"fmt"
	"sync"

	"idde/internal/model"
	"idde/internal/repair"
	"idde/internal/units"
)

// requestReplan heals the routing plan onto the given fault view. In
// synchronous mode (replanner == nil) the repair runs inline at the
// round barrier — deterministic, since repair itself is deterministic.
// In async mode the fault view is handed to the supervised background
// goroutine; if a repair is already in flight the request is coalesced
// into the pending slot (only the newest view matters).
func (e *Engine) requestReplan(replanner *asyncReplanner, now units.Seconds, fv *model.Instance) {
	if replanner != nil {
		replanner.submit(replanJob{now: now, fv: fv})
		return
	}
	e.replanOnce(now, fv)
}

// replanOnce runs one supervised repair pass and, on success, swaps the
// plan. A panicking or failing repair never takes the data plane down:
// the old plan stays in force and the incident is counted — exactly the
// contract a control-plane component owes its data plane.
func (e *Engine) replanOnce(now units.Seconds, fv *model.Instance) {
	old := e.plan.load()
	st, repRep, err := e.supervisedRepair(old, fv)
	// The plan's table fill is O(K·replicas·N), so it runs before e.mu
	// is taken.
	var plan *Plan
	if err == nil {
		plan = newPlan(old.Epoch+1, fv, st)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case err != nil:
		e.stats.replanErrors++
		e.sc.Count("serve_replan_errors_total", 1)
		if e.sc.Tracing() {
			e.sc.Instant("serve", "replan-failed", map[string]any{
				"epoch": old.Epoch, "err": err.Error(),
			})
		}
	default:
		e.plan.store(plan)
		e.lastPlanT = now
		e.stats.replans++
		e.sc.Count("serve_replans_total", 1)
		if e.sc.Tracing() {
			args := map[string]any{"epoch": old.Epoch + 1}
			if repRep != nil {
				args["moves"] = repRep.Moves
				args["replaced"] = repRep.ReplacedReplicas
			}
			e.sc.Instant("serve", "replan", args)
		}
	}
}

// supervisedRepair runs repair.RepairDegraded with panic isolation.
func (e *Engine) supervisedRepair(old *Plan, fv *model.Instance) (st model.Strategy, rep *repair.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			e.mu.Lock()
			e.stats.replanPanics++
			e.mu.Unlock()
			e.sc.Count("serve_replan_panics_total", 1)
			err = fmt.Errorf("serve: re-planner panicked: %v", r)
		}
	}()
	e.sc.Begin("serve", "repair", map[string]any{"epoch": old.Epoch})
	defer e.sc.End("serve", "repair")
	return e.opt.repairFn(old.In, fv, old.Strategy, repair.Options{Waves: e.opt.Waves})
}

// replanJob is one queued repair request.
type replanJob struct {
	now units.Seconds
	fv  *model.Instance
}

// asyncReplanner is the background re-planner used in live mode: a
// single supervised worker goroutine with a one-deep coalescing queue
// (bounded staleness: at most one stale repair runs before the newest
// fault view is honoured). stop() joins the worker — no goroutine
// outlives the soak.
type asyncReplanner struct {
	e *Engine

	mu      sync.Mutex
	pending *replanJob
	closed  bool
	kick    chan struct{}
	done    chan struct{}
}

func startAsyncReplanner(e *Engine) *asyncReplanner {
	r := &asyncReplanner{
		e:    e,
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	go r.loop()
	return r
}

// submit coalesces the job into the pending slot and wakes the worker.
func (r *asyncReplanner) submit(j replanJob) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.pending = &j
	r.mu.Unlock()
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

func (r *asyncReplanner) loop() {
	defer close(r.done)
	for range r.kick {
		for {
			r.mu.Lock()
			j := r.pending
			r.pending = nil
			r.mu.Unlock()
			if j == nil {
				break
			}
			r.e.replanOnce(j.now, j.fv)
		}
	}
}

// stop shuts the worker down and waits for it to exit.
func (r *asyncReplanner) stop() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	close(r.kick)
	<-r.done
}
