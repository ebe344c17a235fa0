package obs

import (
	"sort"
)

// TracerShards is a family of per-worker tracers with a deterministic
// merge. Concurrent workers (the sharded solver's tile workers, traced
// serving soaks) each own one shard — their emits never contend on a
// shared mutex and never interleave ticks nondeterministically — and
// the merged view orders events by (shard-local tick, shard index),
// which is a pure function of what each worker emitted, independent of
// scheduling. With one shard the merge is the identity: the merged
// JSONL is byte-identical to the shard's own WriteJSONL output.
type TracerShards struct {
	shards []*Tracer
}

// NewTracerShards returns n independent tracers (n < 1 is treated as 1).
// Shard i records its events with Tid i, so a merged Chrome trace
// renders one track per worker (shard 0 matches the plain tracer's
// default track, keeping one-shard merges byte-identical).
func NewTracerShards(n int) *TracerShards {
	if n < 1 {
		n = 1
	}
	ts := &TracerShards{shards: make([]*Tracer, n)}
	for i := range ts.shards {
		ts.shards[i] = NewTracer()
		ts.shards[i].tid = i
	}
	return ts
}

// Shard returns shard i's tracer. Each worker must emit into its own
// shard only; the shard tracer itself is an ordinary Tracer.
func (ts *TracerShards) Shard(i int) *Tracer { return ts.shards[i] }

// Merged returns the union of all shard events in the canonical merge
// order — ascending (shard-local tick, shard index) — re-ticked from 0
// so the result is indistinguishable from a single tracer that recorded
// the same events. Within a shard the original order is preserved;
// across shards events advance in lockstep by local tick, so the merge
// depends only on the per-shard sequences, never on wall-clock
// interleaving.
func (ts *TracerShards) Merged() []Event {
	type tagged struct {
		ev    Event
		shard int
	}
	var all []tagged
	for s, tr := range ts.shards {
		for _, ev := range tr.Events() {
			all = append(all, tagged{ev: ev, shard: s})
		}
	}
	sort.SliceStable(all, func(a, b int) bool {
		if all[a].ev.Tick != all[b].ev.Tick {
			return all[a].ev.Tick < all[b].ev.Tick
		}
		return all[a].shard < all[b].shard
	})
	out := make([]Event, len(all))
	for i, t := range all {
		out[i] = t.ev
		out[i].Tick = int64(i)
	}
	return out
}

// MergeInto re-emits the merged events into dst, which assigns them
// fresh consecutive ticks after whatever dst already holds. Each event
// keeps its originating shard's Tid, so the merged Chrome trace still
// renders per-worker tracks. The sharded solver uses it to fold
// tile-worker events back into the run's main tracer once the workers
// have joined.
func (ts *TracerShards) MergeInto(dst *Tracer) {
	if dst == nil {
		return
	}
	for _, ev := range ts.Merged() {
		dst.record(ev)
	}
}

// WithTracer returns a Scope that shares s's metrics registry but
// records events into tr (which may be one shard of a TracerShards).
// Counters recorded through the derived scope land in the same registry
// — they are atomic, so concurrent workers may share it — while trace
// events stay on the worker's own shard. A nil receiver stays nil
// (disabled scopes have no registry to share), and a nil tr yields a
// metrics-only scope.
func (s *Scope) WithTracer(tr *Tracer) *Scope {
	if s == nil {
		return nil
	}
	return &Scope{reg: s.reg, tr: tr}
}
