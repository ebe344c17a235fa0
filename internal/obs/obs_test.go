package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestNilScope exercises every Scope method on the nil receiver: the
// disabled state must be inert, not just non-panicking.
func TestNilScope(t *testing.T) {
	var s *Scope
	if s.Enabled() || s.Tracing() {
		t.Fatal("nil scope reports enabled")
	}
	if s.Registry() != nil || s.Tracer() != nil {
		t.Fatal("nil scope exposes components")
	}
	s.Count("c", 1)
	s.SetGauge("g", 1)
	s.Observe("h", 1)
	s.Begin("cat", "name", map[string]any{"k": 1})
	s.End("cat", "name")
	s.Instant("cat", "name", nil)
}

func TestMetricsOnlyScope(t *testing.T) {
	s := Metrics()
	if !s.Enabled() {
		t.Fatal("metrics scope not enabled")
	}
	if s.Tracing() {
		t.Fatal("metrics scope reports tracing")
	}
	s.Count("c", 2)
	s.Begin("cat", "name", nil) // must be a no-op, not a panic
	if got := s.Registry().Counter("c").Value(); got != 2 {
		t.Fatalf("counter = %d, want 2", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("Counter not idempotent")
	}
	if r.Gauge("x") != r.Gauge("x") {
		t.Fatal("Gauge not idempotent")
	}
	if r.Histogram("x") != r.Histogram("x") {
		t.Fatal("Histogram not idempotent")
	}
	r.Counter("x").Add(3)
	r.Gauge("x").Set(1.5)
	r.Histogram("x").Observe(4)
	snap := r.Snapshot()
	if snap["x"] != int64(3) && snap["x"] != 1.5 {
		// "x" is claimed by both the counter and the gauge; Snapshot
		// keeps one of them — the histogram entries must still be
		// distinct.
		t.Fatalf("snapshot[x] = %v", snap["x"])
	}
	if snap["x_count"] != int64(1) || snap["x_sum"] != 4.0 {
		t.Fatalf("histogram snapshot = %v / %v", snap["x_count"], snap["x_sum"])
	}

	var nilReg *Registry
	if nilReg.Counter("c") != nil || nilReg.Gauge("g") != nil || nilReg.Histogram("h") != nil {
		t.Fatal("nil registry returned live metrics")
	}
	nilReg.Counter("c").Add(1) // nil metric methods are no-ops
	if err := nilReg.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramBuckets pins the log2 bucket layout: bucket 0 holds
// v < 2 (including negatives and NaN), bucket b holds [2^b, 2^(b+1)),
// and the last bucket absorbs the far tail.
func TestHistogramBuckets(t *testing.T) {
	h := &Histogram{}
	for _, v := range []float64{0, 1, 1.99, -5, math.NaN()} {
		h.Observe(v)
	}
	h.Observe(2)    // bucket 1: [2, 4)
	h.Observe(3.5)  // bucket 1
	h.Observe(4)    // bucket 2: [4, 8)
	h.Observe(1024) // bucket 10
	h.Observe(math.Inf(1))
	b := h.Buckets()
	if b[0] != 5 || b[1] != 2 || b[2] != 1 || b[10] != 1 || b[histBuckets-1] != 1 {
		t.Fatalf("bucket counts = %v", b)
	}
	if h.Count() != 10 {
		t.Fatalf("count = %d, want 10", h.Count())
	}
	if up := HistBucketUpper(0); up != 2 {
		t.Fatalf("upper(0) = %g, want 2", up)
	}
	if up := HistBucketUpper(10); up != 2048 {
		t.Fatalf("upper(10) = %g, want 2048", up)
	}
	if !math.IsInf(HistBucketUpper(histBuckets-1), 1) {
		t.Fatal("last bucket upper bound must be +Inf")
	}
}

// TestObserveAllMatchesObserve feeds random batches to ObserveAll and
// the same values one by one to Observe: buckets, count, sum bits and
// quantile estimates must agree after every batch. A reader goroutine
// exports the registry holding the batched histograms throughout, so
// under -race the batch path is checked against concurrent readers.
// Most trials draw finite non-negative latencies; every fourth also
// draws negatives, NaN and ±Inf, which pin their bucket but make every
// later sum NaN or infinite, so each trial gets fresh histograms.
func TestObserveAllMatchesObserve(t *testing.T) {
	r := rand.New(rand.NewPCG(29, 1))
	reg := NewRegistry()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
			_ = reg.Snapshot()
		}
	}()
	defer func() { close(done); wg.Wait() }()

	special := []float64{-3, math.NaN(), math.Inf(1), math.Inf(-1), 0, 2, math.MaxFloat64}
	for trial := 0; trial < 40; trial++ {
		batched := reg.Histogram(fmt.Sprintf("trial_%d", trial))
		single := &Histogram{}
		for batch := 0; batch < 8; batch++ {
			vs := make([]float64, r.IntN(400))
			for i := range vs {
				switch {
				case trial%4 == 3 && r.IntN(16) == 0:
					vs[i] = special[r.IntN(len(special))]
				case r.IntN(3) == 0:
					vs[i] = 2 * r.Float64() // bucket 0
				default:
					vs[i] = math.Ldexp(1+r.Float64(), r.IntN(40))
				}
			}
			batched.ObserveAll(vs)
			for _, v := range vs {
				single.Observe(v)
			}
			if got, want := batched.Buckets(), single.Buckets(); got != want {
				t.Fatalf("trial %d batch %d: buckets %v, want %v", trial, batch, got, want)
			}
			if got, want := batched.Count(), single.Count(); got != want {
				t.Fatalf("trial %d batch %d: count %d, want %d", trial, batch, got, want)
			}
			// A NaN sum's payload depends on the add's operand order,
			// which the compiler may pick; any NaN matches any NaN.
			got, want := batched.Sum(), single.Sum()
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("trial %d batch %d: sum %v (bits %#x), want %v (bits %#x)",
					trial, batch, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			for _, p := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
				if got, want := batched.Quantile(p), single.Quantile(p); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d batch %d: Quantile(%v) = %v, want %v", trial, batch, p, got, want)
				}
			}
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Counter("a_total").Add(1)
	r.Gauge("load").Set(0.5)
	h := r.Histogram("lat_ms")
	h.Observe(1)
	h.Observe(3)
	h.Observe(300)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE a_total counter\na_total 1\n",
		"# TYPE b_total counter\nb_total 2\n",
		"# TYPE load gauge\nload 0.5\n",
		"# TYPE lat_ms histogram\n",
		`lat_ms_bucket{le="2"} 1`,
		`lat_ms_bucket{le="4"} 2`,
		`lat_ms_bucket{le="512"} 3`,
		`lat_ms_bucket{le="+Inf"} 3`,
		"lat_ms_sum 304\nlat_ms_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus dump missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "a_total") > strings.Index(out, "b_total") {
		t.Error("counters not sorted")
	}

	// The dump itself must be deterministic.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("two dumps of the same registry differ")
	}
}

// feedTracer records a fixed little trace; two tracers fed through it
// must serialize byte-identically.
func feedTracer(tr *Tracer) {
	tr.Begin("solve", "phase1", map[string]any{"m": 40})
	tr.Instant("game", "round", map[string]any{"round": 1, "gain": 2.5, "r_avg": 7.25})
	tr.Instant("game", "round", map[string]any{"round": 2, "gain": 0.5})
	tr.End("solve", "phase1")
}

func TestTracerTicksAndJSONL(t *testing.T) {
	tr := NewTracer()
	feedTracer(tr)
	evs := tr.Events()
	if len(evs) != 4 || tr.Len() != 4 {
		t.Fatalf("len = %d/%d, want 4", len(evs), tr.Len())
	}
	for i, ev := range evs {
		if ev.Tick != int64(i) {
			t.Fatalf("event %d has tick %d", i, ev.Tick)
		}
	}
	if evs[0].Ph != PhaseBegin || evs[1].Ph != PhaseInstant || evs[3].Ph != PhaseEnd {
		t.Fatalf("phases = %v %v %v %v", evs[0].Ph, evs[1].Ph, evs[2].Ph, evs[3].Ph)
	}

	var a, b bytes.Buffer
	if err := tr.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	tr2 := NewTracer()
	feedTracer(tr2)
	if err := tr2.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical event sequences serialized differently")
	}
	// Every line must be standalone JSON with the expected keys.
	for _, line := range strings.Split(strings.TrimSpace(a.String()), "\n") {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer()
	feedTracer(tr)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Pid  int            `json:"pid"`
			S    string         `json:"s"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 4 || doc.DisplayTimeUnit != "ms" {
		t.Fatalf("traceEvents = %d, unit = %q", len(doc.TraceEvents), doc.DisplayTimeUnit)
	}
	for i, ce := range doc.TraceEvents {
		if ce.Ts != int64(i) || ce.Pid != 1 {
			t.Fatalf("event %d: ts=%d pid=%d", i, ce.Ts, ce.Pid)
		}
		if ce.Ph == PhaseInstant && ce.S != "t" {
			t.Fatalf("instant event %d missing thread scope, s=%q", i, ce.S)
		}
	}
}

func TestTimelineCSV(t *testing.T) {
	tr := NewTracer()
	feedTracer(tr)
	got := tr.TimelineCSV("game", "round", []string{"round", "gain", "r_avg"})
	want := "round,gain,r_avg\n1,2.5,7.25\n2,0.5,\n"
	if got != want {
		t.Fatalf("TimelineCSV = %q, want %q", got, want)
	}
	if got := tr.TimelineCSV("none", "such", []string{"a"}); got != "a\n" {
		t.Fatalf("empty timeline = %q", got)
	}
}

func TestFormatAttr(t *testing.T) {
	for _, tc := range []struct {
		in   any
		want string
	}{
		{3.0, "3"}, {int(7), "7"}, {int64(-2), "-2"},
		{2.5, "2.5"}, {1e17, "1e+17"}, {"s", "s"},
	} {
		if got := formatAttr(tc.in); got != tc.want {
			t.Errorf("formatAttr(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestServe spins the live endpoint up on a loopback port and checks
// all three surfaces respond with the scope's data.
func TestServe(t *testing.T) {
	s := New()
	s.Count("demo_total", 41)
	s.Observe("demo_hist", 3)
	srv, err := Serve("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	if m := get("/metrics"); !strings.Contains(m, "demo_total 41") || !strings.Contains(m, "demo_hist_count 1") {
		t.Errorf("/metrics missing registry data:\n%s", m)
	}
	if v := get("/debug/vars"); !strings.Contains(v, "idde_metrics") || !strings.Contains(v, "demo_total") {
		t.Errorf("/debug/vars missing idde_metrics publication")
	}
	if p := get("/debug/pprof/cmdline"); p == "" {
		t.Error("/debug/pprof/cmdline empty")
	}

	// A second scope re-publishing under the same expvar key must not
	// panic, and the key must track the latest scope.
	s2 := Metrics()
	s2.Count("second_total", 7)
	srv2, err := Serve("127.0.0.1:0", s2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/vars", srv2.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), "second_total") {
		t.Error("expvar did not switch to the latest published scope")
	}
}
