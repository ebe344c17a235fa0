package online

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"idde/internal/model"
	"idde/internal/rng"
	"idde/internal/units"
)

// EventKind distinguishes churn events.
type EventKind string

const (
	JoinEvent  EventKind = "join"
	LeaveEvent EventKind = "leave"
)

// Event is one churn occurrence at a virtual time.
type Event struct {
	At   units.Seconds `json:"at"`
	Kind EventKind     `json:"kind"`
	User int           `json:"user"`
}

// Trace is a replayable churn schedule, sorted by time.
type Trace struct {
	Events []Event `json:"events"`
}

// GenTraceConfig parametrizes synthetic churn generation.
type GenTraceConfig struct {
	// Horizon is the trace length in seconds.
	Horizon units.Seconds
	// MeanArrivalsPerSec is the Poisson join rate (inactive users join
	// uniformly at random).
	MeanArrivalsPerSec float64
	// MeanDwellSec is the exponential mean of a user's stay.
	MeanDwellSec float64
}

// GenTrace synthesizes a churn trace over a universe of m users:
// Poisson arrivals, exponential dwell times, truncated to the horizon.
func GenTrace(m int, cfg GenTraceConfig, s *rng.Stream) (*Trace, error) {
	if m <= 0 {
		return nil, fmt.Errorf("online: empty universe")
	}
	if cfg.Horizon <= 0 || cfg.MeanArrivalsPerSec <= 0 || cfg.MeanDwellSec <= 0 {
		return nil, fmt.Errorf("online: non-positive trace parameters")
	}
	tr := &Trace{}
	active := make([]bool, m)
	t := 0.0
	for {
		t += s.Exp(1 / cfg.MeanArrivalsPerSec)
		if t >= float64(cfg.Horizon) {
			break
		}
		// Pick an inactive user uniformly (bounded retry; if the whole
		// universe is active, the arrival is lost — a full system).
		j := -1
		for try := 0; try < 4*m; try++ {
			cand := s.IntN(m)
			if !active[cand] {
				j = cand
				break
			}
		}
		if j < 0 {
			continue
		}
		active[j] = true
		tr.Events = append(tr.Events, Event{At: units.Seconds(t), Kind: JoinEvent, User: j})
		if leave := t + s.Exp(cfg.MeanDwellSec); leave < float64(cfg.Horizon) {
			tr.Events = append(tr.Events, Event{At: units.Seconds(leave), Kind: LeaveEvent, User: j})
		}
		// Note: the user may receive another join after its leave; the
		// sort below interleaves correctly, and Replay validates order.
	}
	sort.SliceStable(tr.Events, func(a, b int) bool { return tr.Events[a].At < tr.Events[b].At })
	// Drop joins for already-active users caused by overlapping dwell
	// windows (a user drawn again before its scheduled leave).
	tr.Events = sanitize(tr.Events, m)
	return tr, nil
}

// sanitize removes events that would double-join or leave-inactive.
func sanitize(events []Event, m int) []Event {
	active := make([]bool, m)
	out := events[:0]
	for _, e := range events {
		switch e.Kind {
		case JoinEvent:
			if active[e.User] {
				continue
			}
			active[e.User] = true
		case LeaveEvent:
			if !active[e.User] {
				continue
			}
			active[e.User] = false
		}
		out = append(out, e)
	}
	return out
}

// Save writes the trace as JSON.
func (tr *Trace) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tr)
}

// LoadTrace reads a trace from JSON.
func LoadTrace(r io.Reader) (*Trace, error) {
	var tr Trace
	if err := json.NewDecoder(r).Decode(&tr); err != nil {
		return nil, err
	}
	return &tr, nil
}

// ReplaySample is the system state after one event.
type ReplaySample struct {
	At        units.Seconds
	Active    int
	RateMBps  float64
	LatencyMs float64
	Moves     int
}

// Replay drives a fresh System through the trace, sampling the
// objectives every sampleEvery events (0 = only at the end).
func Replay(in *model.Instance, tr *Trace, sampleEvery int) ([]ReplaySample, *System, error) {
	sys := NewSystem(in)
	var samples []ReplaySample
	for idx, e := range tr.Events {
		if e.User < 0 || e.User >= in.M() {
			return nil, nil, fmt.Errorf("online: trace references unknown user %d", e.User)
		}
		var moves int
		var err error
		switch e.Kind {
		case JoinEvent:
			moves, err = sys.Join(e.User)
		case LeaveEvent:
			moves, err = sys.Leave(e.User)
		default:
			return nil, nil, fmt.Errorf("online: unknown event kind %q", e.Kind)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("online: replaying event %d: %w", idx, err)
		}
		if sampleEvery > 0 && (idx+1)%sampleEvery == 0 {
			r, l := sys.Metrics()
			samples = append(samples, ReplaySample{
				At: e.At, Active: sys.ActiveCount(),
				RateMBps: float64(r), LatencyMs: l.Millis(), Moves: moves,
			})
		}
	}
	r, l := sys.Metrics()
	samples = append(samples, ReplaySample{
		At:     lastAt(tr),
		Active: sys.ActiveCount(), RateMBps: float64(r), LatencyMs: l.Millis(),
	})
	return samples, sys, nil
}

func lastAt(tr *Trace) units.Seconds {
	if len(tr.Events) == 0 {
		return 0
	}
	return tr.Events[len(tr.Events)-1].At
}
