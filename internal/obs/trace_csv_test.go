package obs

import (
	"bytes"
	"encoding/csv"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestTimelineCSVEscaping is the RFC 4180 regression test: attribute
// values carrying commas, double quotes, and line breaks must survive a
// round trip through encoding/csv, and plain numeric values must stay
// unquoted so the committed timeline artifacts are byte-stable.
func TestTimelineCSVEscaping(t *testing.T) {
	tr := NewTracer()
	tr.Instant("game", "round", map[string]any{
		"round": 0,
		"note":  `deadline exceeded, server "s3" open`,
		"path":  "a\nb",
	})
	tr.Instant("game", "round", map[string]any{
		"round": 1,
		"note":  "plain",
		"path":  "cr\rlf",
	})
	got := tr.TimelineCSV("game", "round", []string{"round", "note", "path"})

	rows, err := csv.NewReader(strings.NewReader(got)).ReadAll()
	if err != nil {
		t.Fatalf("emitted CSV does not re-parse: %v\n%s", err, got)
	}
	want := [][]string{
		{"round", "note", "path"},
		{"0", `deadline exceeded, server "s3" open`, "a\nb"},
		{"1", "plain", "cr\rlf"},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("round trip mangled fields:\n got %q\nwant %q", rows, want)
	}
	if !strings.Contains(got, `"deadline exceeded, server ""s3"" open"`) {
		t.Errorf("embedded quotes not doubled:\n%s", got)
	}
	// Numeric-only output stays quote-free.
	tr2 := NewTracer()
	tr2.Instant("game", "round", map[string]any{"round": 2, "gain": 1.25})
	if got := tr2.TimelineCSV("game", "round", []string{"round", "gain"}); got != "round,gain\n2,1.25\n" {
		t.Errorf("numeric timeline gained quoting: %q", got)
	}
}

// TestChromeTraceShardTid: a merged TracerShards trace carries each
// event's originating shard as the Chrome tid, so Perfetto renders one
// track per tile worker. A plain tracer stays on tid 0.
func TestChromeTraceShardTid(t *testing.T) {
	ts := NewTracerShards(3)
	ts.Shard(0).Instant("tile", "w0", nil)
	ts.Shard(2).Instant("tile", "w2", nil)
	ts.Shard(1).Begin("tile", "w1", nil)
	ts.Shard(1).End("tile", "w1")

	main := NewTracer()
	ts.MergeInto(main)
	var buf bytes.Buffer
	if err := main.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"name":"w0","cat":"tile","ph":"i","ts":0,"pid":1,"tid":0`,
		`"name":"w1","cat":"tile","ph":"B","ts":1,"pid":1,"tid":1`,
		`"name":"w2","cat":"tile","ph":"i","ts":2,"pid":1,"tid":2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome trace missing %s:\n%s", want, out)
		}
	}
	// The merged shard events keep their Tid on the Event itself too;
	// merge order is (local tick, shard): w0, w1-B, w2, w1-E.
	evs := main.Events()
	if evs[0].Tid != 0 || evs[1].Tid != 1 || evs[2].Tid != 2 || evs[3].Tid != 1 {
		t.Fatalf("merged event tids = %d,%d,%d,%d", evs[0].Tid, evs[1].Tid, evs[2].Tid, evs[3].Tid)
	}
}

// TestTracerShardsConcurrentJSONLByteIdentity hammers the shard merge
// from GOMAXPROCS concurrent emitters and asserts the merged JSONL is
// byte-identical across repeated runs — the determinism contract at the
// serialization layer, under the race detector in CI's -race pass.
func TestTracerShardsConcurrentJSONLByteIdentity(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	run := func() []byte {
		ts := NewTracerShards(workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				tr := ts.Shard(w)
				tr.Begin("shard", "tile", map[string]any{"tile": w})
				for r := 0; r < 50; r++ {
					tr.Instant("game", "round", map[string]any{"round": r, "tile": w, "gain": float64(r) * 0.5})
				}
				tr.End("shard", "tile")
			}(w)
		}
		wg.Wait()
		var buf bytes.Buffer
		if err := writeMerged(&buf, ts); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := run()
	if len(base) == 0 {
		t.Fatal("no bytes produced")
	}
	if lines := bytes.Count(base, []byte("\n")); lines != workers*52 {
		t.Fatalf("merged %d lines, want %d", lines, workers*52)
	}
	for i := 0; i < 5; i++ {
		if got := run(); !bytes.Equal(got, base) {
			t.Fatalf("run %d: merged JSONL bytes diverged under concurrent emit", i)
		}
	}
}
