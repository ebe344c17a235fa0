package obs

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// sampleSet returns the labels in [0,n) the recorder captures.
func sampleSet(f *FlightRecorder, n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		if f.Sample(uint64(i) * 0x9e3779b97f4a7c15) {
			out = append(out, i)
		}
	}
	return out
}

func TestFlightSamplingDeterministicAndSeedSensitive(t *testing.T) {
	a := NewFlightRecorder(1, 64, 0.1, 7)
	b := NewFlightRecorder(8, 64, 0.1, 7) // worker count must not matter
	c := NewFlightRecorder(1, 64, 0.1, 8) // seed must
	sa, sb, sc := sampleSet(a, 5000), sampleSet(b, 5000), sampleSet(c, 5000)
	if !reflect.DeepEqual(sa, sb) {
		t.Fatal("sampled set depends on worker count")
	}
	if reflect.DeepEqual(sa, sc) {
		t.Fatal("different seeds sampled the identical set")
	}
	got := float64(len(sa)) / 5000
	if math.Abs(got-0.1) > 0.03 {
		t.Errorf("empirical rate %.3f far from configured 0.1", got)
	}
	if len(sampleSet(NewFlightRecorder(1, 64, 0, 7), 5000)) != 0 {
		t.Error("rate 0 sampled something")
	}
	if len(sampleSet(NewFlightRecorder(1, 64, 1, 7), 500)) != 500 {
		t.Error("rate 1 did not sample everything")
	}
}

func TestFlightNilSafety(t *testing.T) {
	var f *FlightRecorder
	if f.Sample(42) {
		t.Error("nil recorder sampled")
	}
	f.Shard(0).Add(FlightRecord{}) // nil shard must be inert
	f.MergeRound()
	if f.Records() != nil || f.Len() != 0 || f.Sampled() != 0 || f.Evicted() != 0 {
		t.Error("nil recorder not inert")
	}
	var buf bytes.Buffer
	if err := f.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil WriteJSONL: %v, %d bytes", err, buf.Len())
	}
}

// TestFlightMergeDeterministicAcrossSharding: the same sampled records
// pushed through different worker shardings must merge to the same ring
// and the same JSONL bytes — the per-worker layout is erased by the
// (round, index) merge.
func TestFlightMergeDeterministicAcrossSharding(t *testing.T) {
	recs := make([]FlightRecord, 40)
	for i := range recs {
		recs[i] = FlightRecord{
			Round: i / 10, Index: i % 10, User: i, Item: i % 3,
			Served: i % 5, Intended: i % 5, LatencyMs: float64(i) * 1.5,
			Attempts: []FlightAttempt{{Server: i % 5, Kind: "edge", Breaker: "closed", LatencyMs: float64(i), OK: true}},
		}
	}
	run := func(workers int) []byte {
		f := NewFlightRecorder(workers, 1000, 1, 1)
		for r := 0; r < 4; r++ {
			for i, rec := range recs {
				if rec.Round != r {
					continue
				}
				f.Shard(i % workers).Add(rec)
			}
			f.MergeRound()
		}
		var buf bytes.Buffer
		if err := f.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b, c := run(1), run(3), run(8)
	if !bytes.Equal(a, b) || !bytes.Equal(a, c) {
		t.Fatal("merged flight JSONL depends on worker sharding")
	}
	if len(a) == 0 {
		t.Fatal("no bytes produced")
	}
}

// TestFlightRingEviction: the capacity bound drops the oldest records at
// the merge, keeping the newest in chronological order.
func TestFlightRingEviction(t *testing.T) {
	f := NewFlightRecorder(2, 5, 1, 1)
	for r := 0; r < 4; r++ {
		for i := 0; i < 3; i++ {
			f.Shard(i % 2).Add(FlightRecord{Round: r, Index: i})
		}
		f.MergeRound()
	}
	if f.Sampled() != 12 || f.Evicted() != 7 || f.Len() != 5 {
		t.Fatalf("sampled=%d evicted=%d len=%d, want 12/7/5", f.Sampled(), f.Evicted(), f.Len())
	}
	got := f.Records()
	want := []FlightRecord{{Round: 2, Index: 2}, {Round: 3, Index: 0}, {Round: 3, Index: 1}, {Round: 3, Index: 2}}
	if len(got) != 5 {
		t.Fatalf("ring holds %d records", len(got))
	}
	if !reflect.DeepEqual(got[1:], want) {
		t.Fatalf("ring tail %+v, want %+v", got[1:], want)
	}
	if !reflect.DeepEqual(got[0], FlightRecord{Round: 2, Index: 1}) {
		t.Fatalf("ring head %+v", got[0])
	}
}

func TestFlightDumpRoundTrip(t *testing.T) {
	f := NewFlightRecorder(1, 16, 1, 1)
	f.Shard(0).Add(FlightRecord{
		Round: 3, Index: 7, User: 2, Item: 1, Intended: 4, Served: -1,
		Retries: 2, Failovers: 1, CloudFallback: true, Degraded: true,
		LatencyMs: 120.5, LatencyDeltaMs: 100.25, BackhaulMB: 30,
		Attempts: []FlightAttempt{
			{Server: 4, Kind: "edge", Breaker: "closed", Retries: 2, LatencyMs: 80, BudgetMs: 1920, OK: false},
			{Server: -1, Kind: "cloud", LatencyMs: 40.5, BudgetMs: 1879.5, OK: true},
		},
	})
	f.MergeRound()

	var buf bytes.Buffer
	if err := f.WriteDump(&buf, "slo-burn:availability", 3, 3.0); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteDump(&buf, "breaker-spike", 4, 4.0); err != nil {
		t.Fatal(err)
	}
	recs, headers, err := ReadFlightJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(headers) != 2 || headers[0].Dump != "slo-burn:availability" || headers[1].Round != 4 {
		t.Fatalf("headers = %+v", headers)
	}
	if len(recs) != 2 { // the same ring dumped twice
		t.Fatalf("records = %d, want 2", len(recs))
	}
	if !reflect.DeepEqual(recs[0], recs[1]) || !reflect.DeepEqual(recs[0], f.Records()[0]) {
		t.Fatalf("round-trip mismatch: %+v vs %+v", recs[0], f.Records()[0])
	}
}

func TestFlightChromeWaterfall(t *testing.T) {
	recs := []FlightRecord{{
		Round: 2, Index: 5, User: 1, Item: 0, Intended: 3, Served: 7,
		LatencyMs: 12,
		Attempts: []FlightAttempt{
			{Server: 3, Kind: "edge", Breaker: "open", LatencyMs: 2, BudgetMs: 1998, OK: false},
			{Server: 7, Kind: "failover", Breaker: "closed", LatencyMs: 10, BudgetMs: 1988, OK: true},
		},
	}}
	var buf bytes.Buffer
	if err := WriteFlightChromeTrace(recs, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"traceEvents"`, `"req u1/k0"`, `"edge s3"`, `"failover s7"`,
		`"breaker":"open"`, `"tid":5`, `"pid":3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("waterfall missing %s:\n%s", want, out)
		}
	}
}
