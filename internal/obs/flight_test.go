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
	a := NewFlightRecorder(64, 0.1, 7)
	b := NewFlightRecorder(64, 0.1, 7)
	c := NewFlightRecorder(64, 0.1, 8) // seed must matter
	sa, sb, sc := sampleSet(a, 5000), sampleSet(b, 5000), sampleSet(c, 5000)
	if !reflect.DeepEqual(sa, sb) {
		t.Fatal("same-seed recorders sampled different sets")
	}
	if reflect.DeepEqual(sa, sc) {
		t.Fatal("different seeds sampled the identical set")
	}
	got := float64(len(sa)) / 5000
	if math.Abs(got-0.1) > 0.03 {
		t.Errorf("empirical rate %.3f far from configured 0.1", got)
	}
	if len(sampleSet(NewFlightRecorder(64, 0, 7), 5000)) != 0 {
		t.Error("rate 0 sampled something")
	}
	if len(sampleSet(NewFlightRecorder(64, 1, 7), 500)) != 500 {
		t.Error("rate 1 did not sample everything")
	}
}

func TestFlightNilSafety(t *testing.T) {
	var f *FlightRecorder
	if f.Sample(42) {
		t.Error("nil recorder sampled")
	}
	f.Add(FlightRecord{})
	f.MergeRound()
	if f.Records() != nil || f.Sampled() != 0 || f.Evicted() != 0 {
		t.Error("nil recorder not inert")
	}
	var buf bytes.Buffer
	if err := f.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil WriteJSONL: %v, %d bytes", err, buf.Len())
	}
}

// TestFlightRingEviction: the capacity bound drops the oldest records at
// the merge, keeping the newest in chronological order.
func TestFlightRingEviction(t *testing.T) {
	f := NewFlightRecorder(5, 1, 1)
	for r := 0; r < 4; r++ {
		for i := 0; i < 3; i++ {
			f.Add(FlightRecord{Round: r, Index: i})
		}
		if r == 0 && (len(f.Records()) != 0 || f.Sampled() != 0) {
			t.Fatalf("records reached the ring before the barrier: len=%d sampled=%d", len(f.Records()), f.Sampled())
		}
		f.MergeRound()
	}
	if f.Sampled() != 12 || f.Evicted() != 7 || len(f.Records()) != 5 {
		t.Fatalf("sampled=%d evicted=%d len=%d, want 12/7/5", f.Sampled(), f.Evicted(), len(f.Records()))
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
	f := NewFlightRecorder(16, 1, 1)
	f.Add(FlightRecord{
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

// FuzzFlightJSONLRoundTrip drives fuzzed records through the recorder —
// Add in request order, MergeRound at each round barrier, eviction at a
// fuzzed capacity — then writes the ring with WriteDump and WriteJSONL
// and reads both back with ReadFlightJSONL. Every retained record must
// come back reflect.DeepEqual to Records(), the dump header must carry
// the reason, round, time and record count, and the ring's counters must
// account every record added. JSON has no NaN or ±Inf, so a non-finite
// float anywhere in the ring (or in the dump's time) must fail the write
// rather than change silently. Strings are made valid UTF-8 first: the
// encoder replaces invalid bytes, and the recorder only ever stores the
// fixed ASCII kind and breaker names.
func FuzzFlightJSONLRoundTrip(f *testing.F) {
	f.Add(uint8(5), uint8(12), []byte{1, 2, 3, 0x81, 4, 5, 6, 7, 8, 9, 10, 0x90}, "edge", 12.5, "slo-burn:availability", 3.0)
	f.Add(uint8(0), uint8(40), []byte{0xff, 0x10, 0x22, 0x33, 0x44}, "failover", -0.125, "breaker-spike", 7.5)
	f.Add(uint8(4), uint8(1), []byte{0, 7, 1, 1}, "cloud", math.NaN(), "recovery-gate", 1.0)
	f.Add(uint8(8), uint8(6), []byte{2, 4, 8, 16, 0x0f, 0x17}, "hedge", math.Inf(-1), "r", 0.0)
	f.Add(uint8(2), uint8(3), []byte{1}, "edge", 1.0, "r", math.Inf(1))
	f.Fuzz(func(t *testing.T, capacity, n uint8, data []byte, kind string, x float64, reason string, nowS float64) {
		kind = strings.ToValidUTF8(kind, "?")
		reason = strings.ToValidUTF8(reason, "?")
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// num is a finite value from the data stream, or the fuzzed x
		// when the stream's byte says so.
		num := func() float64 {
			b := next()
			if b%8 == 7 {
				return x
			}
			return float64(int8(b)) / 8
		}

		fr := NewFlightRecorder(int(capacity), 1, 1)
		round, index := 0, 0
		added := int(n % 64)
		for r := 0; r < added; r++ {
			b := next()
			if b&0x80 != 0 { // round barrier
				fr.MergeRound()
				round++
				index = 0
			}
			rec := FlightRecord{
				Round: round, Index: index, User: int(b % 11), Item: int(b % 5),
				Intended: int(b%9) - 1, Served: int(b%13) - 1,
				Retries: int(b % 3), Failovers: int(b % 2),
				Hedged: b&1 != 0, HedgeWon: b&2 != 0, CloudFallback: b&4 != 0,
				DeadlineExceeded: b&8 != 0, Degraded: b&16 != 0,
				LatencyMs: num(), LatencyDeltaMs: num(), BackhaulMB: num(),
			}
			for a := 0; a < int(b%4); a++ {
				ab := next()
				at := FlightAttempt{
					Server: int(ab%7) - 1, Kind: kind, Retries: int(ab % 3),
					LatencyMs: num(), BudgetMs: num(), OK: ab&1 != 0,
				}
				if ab&2 != 0 {
					at.Breaker = []string{"closed", "open", "half-open", kind}[ab%4]
				}
				rec.Attempts = append(rec.Attempts, at)
			}
			fr.Add(rec)
			index++
		}
		fr.MergeRound()

		want := fr.Records()
		wantCap := int(capacity)
		if wantCap == 0 {
			wantCap = 256
		}
		wantLen := min(added, wantCap)
		if fr.Sampled() != int64(added) || fr.Evicted() != int64(added-wantLen) || len(fr.Records()) != wantLen || len(want) != wantLen {
			t.Fatalf("added %d at capacity %d: sampled=%d evicted=%d len=%d records=%d",
				added, wantCap, fr.Sampled(), fr.Evicted(), len(fr.Records()), len(want))
		}

		finite := !math.IsNaN(nowS) && !math.IsInf(nowS, 0)
		ringFinite := true
		check := func(v float64) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				ringFinite = false
			}
		}
		for _, rec := range want {
			check(rec.LatencyMs)
			check(rec.LatencyDeltaMs)
			check(rec.BackhaulMB)
			for _, at := range rec.Attempts {
				check(at.LatencyMs)
				check(at.BudgetMs)
			}
		}

		var dump bytes.Buffer
		err := fr.WriteDump(&dump, reason, round, nowS)
		if !finite || !ringFinite {
			if err == nil {
				t.Fatalf("WriteDump accepted a non-finite float (now_s %v, ring finite %v)", nowS, ringFinite)
			}
		} else {
			if err != nil {
				t.Fatalf("WriteDump: %v", err)
			}
			got, headers, err := ReadFlightJSONL(&dump)
			if err != nil {
				t.Fatalf("ReadFlightJSONL(dump): %v", err)
			}
			wantH := FlightDumpHeader{Dump: reason, Round: round, NowS: nowS, Records: len(want)}
			if len(headers) != 1 || headers[0] != wantH {
				t.Fatalf("dump headers %+v, want [%+v]", headers, wantH)
			}
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("dump round trip changed the ring:\n got %+v\nwant %+v", got, want)
			}
		}

		var ring bytes.Buffer
		err = fr.WriteJSONL(&ring)
		if !ringFinite {
			if err == nil {
				t.Fatal("WriteJSONL accepted a non-finite float")
			}
			return
		}
		if err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
		got, headers, err := ReadFlightJSONL(&ring)
		if err != nil || len(headers) != 0 {
			t.Fatalf("ReadFlightJSONL(ring): err=%v headers=%+v", err, headers)
		}
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("JSONL round trip changed the ring:\n got %+v\nwant %+v", got, want)
		}
	})
}
