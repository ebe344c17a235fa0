package obs

import (
	"bytes"
	"io"
	"reflect"
	"sync"
	"testing"
)

// writeMerged writes ts's merged events as JSONL, one object per line,
// with the serialization a single Tracer uses.
func writeMerged(w io.Writer, ts *TracerShards) error {
	for _, ev := range ts.Merged() {
		if err := writeJSONLine(w, ev); err != nil {
			return err
		}
	}
	return nil
}

// TestTracerShardsSingleShardByteIdentity pins the satellite contract:
// a one-shard TracerShards serializes byte-identically to a plain
// Tracer fed the same events — merge and re-ticking are the identity.
func TestTracerShardsSingleShardByteIdentity(t *testing.T) {
	emit := func(tr *Tracer) {
		tr.Begin("solve", "phase1", map[string]any{"tiles": 1})
		tr.Instant("game", "round", map[string]any{"round": 0, "winner": 3, "gain": 1.25})
		tr.Instant("game", "round", map[string]any{"round": 1, "winner": -1})
		tr.End("solve", "phase1")
	}
	plain := NewTracer()
	emit(plain)
	ts := NewTracerShards(1)
	emit(ts.Shard(0))

	var want, got bytes.Buffer
	if err := plain.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	if err := writeMerged(&got, ts); err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("no bytes produced")
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("single-shard merge not byte-identical:\n%s\nvs\n%s", got.String(), want.String())
	}
}

// TestTracerShardsMergeOrder pins the canonical order: ascending
// (shard-local tick, shard index), re-ticked from zero.
func TestTracerShardsMergeOrder(t *testing.T) {
	ts := NewTracerShards(3)
	ts.Shard(2).Instant("tile", "a2", nil) // local tick 0, shard 2
	ts.Shard(0).Instant("tile", "a0", nil) // local tick 0, shard 0
	ts.Shard(0).Instant("tile", "b0", nil) // local tick 1, shard 0
	ts.Shard(1).Instant("tile", "a1", nil) // local tick 0, shard 1

	merged := ts.Merged()
	var names []string
	for i, ev := range merged {
		if ev.Tick != int64(i) {
			t.Fatalf("event %d re-ticked to %d", i, ev.Tick)
		}
		names = append(names, ev.Name)
	}
	want := []string{"a0", "a1", "a2", "b0"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("merge order %v, want %v", names, want)
	}
}

// TestTracerShardsConcurrentDeterminism emits fixed per-worker
// sequences from concurrent goroutines (one shard each, as the tile
// workers do) and checks the merged trace is identical across repeated
// runs — the merge depends on the per-shard sequences alone, not on
// scheduling.
func TestTracerShardsConcurrentDeterminism(t *testing.T) {
	run := func() []Event {
		ts := NewTracerShards(4)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				tr := ts.Shard(w)
				tr.Begin("shard", "tile", map[string]any{"tile": w})
				for r := 0; r < 5; r++ {
					tr.Instant("game", "round", map[string]any{"round": r, "tile": w})
				}
				tr.End("shard", "tile")
			}(w)
		}
		wg.Wait()
		return ts.Merged()
	}
	base := run()
	if len(base) != 4*7 {
		t.Fatalf("merged %d events, want %d", len(base), 4*7)
	}
	for i := 0; i < 10; i++ {
		if got := run(); !reflect.DeepEqual(got, base) {
			t.Fatalf("run %d merged trace diverged", i)
		}
	}
}

// TestTracerShardsMergeInto folds shard events into a tracer that
// already holds events: appended in merge order with fresh consecutive
// ticks.
func TestTracerShardsMergeInto(t *testing.T) {
	main := NewTracer()
	main.Begin("solve", "phase1", nil)
	ts := NewTracerShards(2)
	ts.Shard(1).Instant("tile", "t1", nil)
	ts.Shard(0).Instant("tile", "t0", nil)
	ts.MergeInto(main)
	main.End("solve", "phase1")

	evs := main.Events()
	var names []string
	for i, ev := range evs {
		if ev.Tick != int64(i) {
			t.Fatalf("event %d has tick %d", i, ev.Tick)
		}
		names = append(names, ev.Name)
	}
	want := []string{"phase1", "t0", "t1", "phase1"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("MergeInto order %v, want %v", names, want)
	}
}

// TestScopeWithTracer: the derived scope shares the registry (counters
// land in one place) while events go to the worker's own tracer; a nil
// parent stays disabled.
func TestScopeWithTracer(t *testing.T) {
	parent := New()
	ts := NewTracerShards(2)
	w0 := parent.WithTracer(ts.Shard(0))
	w1 := parent.WithTracer(ts.Shard(1))
	w0.Count("tile_runs_total", 1)
	w1.Count("tile_runs_total", 1)
	w0.Instant("tile", "a", nil)
	w1.Instant("tile", "b", nil)

	if got := parent.Registry().Counter("tile_runs_total").Value(); got != 2 {
		t.Fatalf("shared registry counter = %d, want 2", got)
	}
	if parent.Tracer().Len() != 0 {
		t.Fatalf("parent tracer received worker events")
	}
	if ts.Shard(0).Len() != 1 || ts.Shard(1).Len() != 1 {
		t.Fatalf("worker events missed their shards")
	}
	var nilScope *Scope
	if derived := nilScope.WithTracer(ts.Shard(0)); derived.Enabled() {
		t.Fatal("nil scope must stay disabled")
	}
}
