package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"idde/internal/rng"
)

// FlightAttempt is one hop of a sampled request's attempt chain: which
// server was tried (or the cloud), what the breaker said on admission,
// how many in-place retries were burned there, the virtual latency the
// hop added, and the deadline budget left when the hop finished. A
// waterfall of FlightAttempts is the per-request explanation the
// phase-level aggregates cannot give: *where* a deadline budget went.
type FlightAttempt struct {
	// Server is the edge server tried, or -1 for the cloud path.
	Server int `json:"server"`
	// Kind classifies the hop: "edge" (the Eq. 8 primary source),
	// "failover" (the next Eq. 8 hop after an abandoned source),
	// "hedge" (the shadow attempt) or "cloud" (the final fallback).
	Kind string `json:"kind"`
	// Breaker is the breaker state observed at admission ("closed",
	// "open", "half-open"); empty for the cloud, which has no breaker.
	Breaker string `json:"breaker,omitempty"`
	// Retries counts the jittered in-place retries burned at this hop.
	Retries int `json:"retries,omitempty"`
	// LatencyMs is the virtual latency this hop added (attempt time,
	// stalls, retries and backoff included).
	LatencyMs float64 `json:"latency_ms"`
	// BudgetMs is the remaining deadline budget after this hop.
	BudgetMs float64 `json:"budget_ms"`
	// OK reports whether the hop served the request.
	OK bool `json:"ok"`
}

// FlightRecord is one sampled request, end to end: identity, the plan's
// Eq. 8 intent, the resolved outcome, the Eq. 17 degradation pricing,
// and the full attempt chain.
type FlightRecord struct {
	Round int `json:"round"`
	// Index is the request's index within its round; with Round it
	// labels the request's rng split, so the sampled set is a pure
	// function of the seed.
	Index int `json:"index"`
	User  int `json:"user"`
	Item  int `json:"item"`
	// Intended is the plan's Eq. 8 choice (-1 = cloud); Served is where
	// the request actually completed (-1 = cloud).
	Intended int `json:"intended"`
	Served   int `json:"served"`

	Retries   int `json:"retries,omitempty"`
	Failovers int `json:"failovers,omitempty"`
	// Hedged marks that a hedge was raced; HedgeWon that it won.
	Hedged           bool `json:"hedged,omitempty"`
	HedgeWon         bool `json:"hedge_won,omitempty"`
	CloudFallback    bool `json:"cloud_fallback,omitempty"`
	DeadlineExceeded bool `json:"deadline_exceeded,omitempty"`
	Degraded         bool `json:"degraded,omitempty"`

	LatencyMs float64 `json:"latency_ms"`
	// LatencyDeltaMs and BackhaulMB are the request's Eq. 17
	// contribution: measured-minus-intended latency and the unplanned
	// cloud backhaul traffic of the downgrade.
	LatencyDeltaMs float64 `json:"latency_delta_ms,omitempty"`
	BackhaulMB     float64 `json:"backhaul_mb,omitempty"`

	Attempts []FlightAttempt `json:"attempts,omitempty"`
}

// FlightRecorder is a sampled, bounded flight recorder for a round-based
// request loop: the round's sampled records collect in a pending slice
// in request order and move into a single bounded ring of the most
// recent exemplar records at the round barrier.
//
// Determinism contract: Sample is a pure function of (recorder seed,
// request label), so with labels derived from request indices the
// sampled set is fixed by the seed. Eviction happens only at the round
// barrier, so the retained ring, and therefore every JSONL dump, is
// byte-stable across runs for a fixed seed. Sampling never draws from
// the request's rng stream, so outcomes (and OutcomeHash) are identical
// with sampling on or off.
//
// Add and MergeRound belong to the goroutine that runs the request
// loop; the ring's readers (Records, Len, the writers) may run on any
// goroutine, which is what the ring's mutex is for.
//
// The nil *FlightRecorder is the disabled state: Sample reports false
// and every other method is a no-op, which is what keeps the
// sampling-off request path allocation-free.
type FlightRecorder struct {
	threshold uint64 // Sample admits labels hashing below this in 2^64 space
	seed      uint64
	capacity  int
	pending   []FlightRecord // the current round's records, in request order

	mu      sync.Mutex
	ring    []FlightRecord // chronological (round, index), bounded at capacity
	sampled atomic.Int64
	evicted atomic.Int64
}

// NewFlightRecorder builds a recorder with a ring bounded at capacity
// records (default 256 when <= 0) and a deterministic sampling rate in
// [0,1] derived from seed. rate <= 0 disables sampling (the recorder
// stays allocated but captures nothing); rate >= 1 captures every
// request.
func NewFlightRecorder(capacity int, rate float64, seed uint64) *FlightRecorder {
	if capacity <= 0 {
		capacity = 256
	}
	return &FlightRecorder{
		threshold: rateThreshold(rate),
		seed:      seed,
		capacity:  capacity,
	}
}

// rateThreshold maps a sampling probability to a uint64 comparison
// threshold: a label is sampled iff its hash < threshold.
func rateThreshold(rate float64) uint64 {
	if rate <= 0 {
		return 0
	}
	th := math.Ldexp(rate, 64)
	if th >= math.Ldexp(1, 64) {
		return ^uint64(0)
	}
	return uint64(th)
}

// flightSalt decorrelates the sampling hash from every other consumer of
// the same label space (an arbitrary odd constant).
const flightSalt = 0x9d8f3c1b5a7e2461

// Sample reports whether the request identified by label is captured.
// It is a pure function of (recorder seed, label): no state is read or
// written and no rng draw is consumed, so same-seed runs capture the
// same exemplar set and the decision costs nothing when it says no.
// Nil-safe (false) and allocation-free.
func (f *FlightRecorder) Sample(label uint64) bool {
	if f == nil || f.threshold == 0 {
		return false
	}
	return rng.Mix(label^f.seed^flightSalt) < f.threshold
}

// Add appends one sampled record to the current round's pending slice.
// Call it in request order; the record reaches the ring at the next
// MergeRound.
func (f *FlightRecorder) Add(rec FlightRecord) {
	if f != nil {
		f.pending = append(f.pending, rec)
	}
}

// MergeRound moves the round's pending records into the bounded ring —
// called once per round at the barrier. Eviction happens only here, and
// drops the oldest records first, so the ring always holds the most
// recent capacity exemplars in chronological order. Evicting per Add
// instead would shift the whole ring once per record.
func (f *FlightRecorder) MergeRound() {
	if f == nil || len(f.pending) == 0 {
		return
	}
	f.sampled.Add(int64(len(f.pending)))
	f.mu.Lock()
	f.ring = append(f.ring, f.pending...)
	if over := len(f.ring) - f.capacity; over > 0 {
		f.evicted.Add(int64(over))
		f.ring = append(f.ring[:0], f.ring[over:]...)
	}
	f.mu.Unlock()
	f.pending = f.pending[:0]
}

// Records returns a copy of the retained ring in chronological order.
func (f *FlightRecorder) Records() []FlightRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightRecord, len(f.ring))
	copy(out, f.ring)
	return out
}

// Sampled reports how many records were ever merged into the recorder;
// Evicted how many the capacity bound dropped again.
func (f *FlightRecorder) Sampled() int64 {
	if f == nil {
		return 0
	}
	return f.sampled.Load()
}

// Evicted reports the number of records dropped by the capacity bound.
func (f *FlightRecorder) Evicted() int64 {
	if f == nil {
		return 0
	}
	return f.evicted.Load()
}

// WriteJSONL writes the retained ring as JSONL, one record per line.
// For a fixed seed the bytes are identical across runs (see the
// determinism contract above).
func (f *FlightRecorder) WriteJSONL(w io.Writer) error {
	for _, rec := range f.Records() {
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// FlightDumpHeader is the metadata line preceding each triggered dump in
// a flight JSONL stream: why the dump fired, when, and how many records
// follow.
type FlightDumpHeader struct {
	Dump    string  `json:"dump"` // trigger reason, e.g. "slo-burn:availability"
	Round   int     `json:"round"`
	NowS    float64 `json:"now_s"`
	Records int     `json:"records"`
}

// WriteDump writes one triggered dump: a FlightDumpHeader line followed
// by the retained ring as JSONL.
func (f *FlightRecorder) WriteDump(w io.Writer, reason string, round int, nowS float64) error {
	recs := f.Records()
	h := FlightDumpHeader{Dump: reason, Round: round, NowS: nowS, Records: len(recs)}
	b, err := json.Marshal(h)
	if err != nil {
		return err
	}
	if _, err := w.Write(append(b, '\n')); err != nil {
		return err
	}
	for _, rec := range recs {
		rb, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(rb, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// ReadFlightJSONL parses a flight JSONL stream — bare records, or one or
// more WriteDump sections — returning the records and any dump headers
// in stream order.
func ReadFlightJSONL(r io.Reader) ([]FlightRecord, []FlightDumpHeader, error) {
	var (
		recs    []FlightRecord
		headers []FlightDumpHeader
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var probe struct {
			Dump *string `json:"dump"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return nil, nil, fmt.Errorf("obs: flight JSONL line %d: %w", line, err)
		}
		if probe.Dump != nil {
			var h FlightDumpHeader
			if err := json.Unmarshal(raw, &h); err != nil {
				return nil, nil, fmt.Errorf("obs: flight dump header line %d: %w", line, err)
			}
			headers = append(headers, h)
			continue
		}
		var rec FlightRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, nil, fmt.Errorf("obs: flight record line %d: %w", line, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return recs, headers, nil
}

// WriteFlightChromeTrace renders flight records as a Chrome trace_event
// exemplar waterfall: one process per round, one thread track per
// sampled request, and one span per attempt laid out at the request's
// cumulative virtual latency (1 trace µs per virtual ms, so Perfetto's
// ruler reads milliseconds directly). The whole request is wrapped in an
// enclosing span carrying the outcome args.
func WriteFlightChromeTrace(recs []FlightRecord, w io.Writer) error {
	const scale = 1000 // virtual ms -> trace_event µs ticks
	out := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{DisplayTimeUnit: "ms"}
	add := func(ce chromeEvent) { out.TraceEvents = append(out.TraceEvents, ce) }
	for _, rec := range recs {
		pid := rec.Round + 1 // pid 0 renders poorly in some viewers
		tid := rec.Index
		name := fmt.Sprintf("req u%d/k%d", rec.User, rec.Item)
		add(chromeEvent{
			Name: name, Cat: "flight", Ph: PhaseBegin, Ts: 0, Pid: pid, Tid: tid,
			Args: map[string]any{
				"round": rec.Round, "index": rec.Index,
				"intended": rec.Intended, "served": rec.Served,
				"latency_ms": rec.LatencyMs, "latency_delta_ms": rec.LatencyDeltaMs,
				"backhaul_mb": rec.BackhaulMB, "degraded": rec.Degraded,
				"deadline_exceeded": rec.DeadlineExceeded, "hedge_won": rec.HedgeWon,
			},
		})
		t := int64(0)
		for _, at := range rec.Attempts {
			dur := int64(at.LatencyMs * scale)
			label := fmt.Sprintf("%s s%d", at.Kind, at.Server)
			if at.Server < 0 {
				label = at.Kind
			}
			add(chromeEvent{
				Name: label, Cat: "attempt", Ph: PhaseBegin, Ts: t, Pid: pid, Tid: tid,
				Args: map[string]any{
					"breaker": at.Breaker, "retries": at.Retries,
					"budget_ms": at.BudgetMs, "ok": at.OK,
				},
			})
			add(chromeEvent{Name: label, Cat: "attempt", Ph: PhaseEnd, Ts: t + dur, Pid: pid, Tid: tid})
			t += dur
		}
		end := int64(rec.LatencyMs * scale)
		if end < t {
			end = t // a winning hedge can finish before the primary's cumulative time
		}
		add(chromeEvent{Name: name, Cat: "flight", Ph: PhaseEnd, Ts: end, Pid: pid, Tid: tid})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
