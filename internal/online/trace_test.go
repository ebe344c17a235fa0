package online

import (
	"bytes"
	"testing"

	"idde/internal/rng"
	"idde/internal/units"
)

func defaultTraceConfig() GenTraceConfig {
	return GenTraceConfig{Horizon: 3600, MeanArrivalsPerSec: 0.05, MeanDwellSec: 600}
}

func TestGenTraceWellFormed(t *testing.T) {
	tr, err := GenTrace(100, defaultTraceConfig(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) == 0 {
		t.Fatal("empty trace")
	}
	active := make([]bool, 100)
	var prev units.Seconds
	for i, e := range tr.Events {
		if e.At < prev {
			t.Fatalf("event %d out of order", i)
		}
		prev = e.At
		if e.At < 0 || e.At >= 3600 {
			t.Fatalf("event %d outside horizon: %v", i, e.At)
		}
		switch e.Kind {
		case JoinEvent:
			if active[e.User] {
				t.Fatalf("double join of user %d at event %d", e.User, i)
			}
			active[e.User] = true
		case LeaveEvent:
			if !active[e.User] {
				t.Fatalf("leave of inactive user %d at event %d", e.User, i)
			}
			active[e.User] = false
		default:
			t.Fatalf("unknown kind %q", e.Kind)
		}
	}
}

func TestGenTraceValidation(t *testing.T) {
	if _, err := GenTrace(0, defaultTraceConfig(), rng.New(1)); err == nil {
		t.Error("empty universe accepted")
	}
	bad := defaultTraceConfig()
	bad.Horizon = 0
	if _, err := GenTrace(10, bad, rng.New(1)); err == nil {
		t.Error("zero horizon accepted")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr, err := GenTrace(50, defaultTraceConfig(), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(tr.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(got.Events), len(tr.Events))
	}
	for i := range got.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
	if _, err := LoadTrace(bytes.NewBufferString("{")); err == nil {
		t.Error("garbage trace accepted")
	}
}

func TestReplayTrace(t *testing.T) {
	in := genInstance(t, 12, 80, 4, 8)
	tr, err := GenTrace(in.M(), defaultTraceConfig(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	samples, sys, err := Replay(in, tr, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	final := samples[len(samples)-1]
	if final.Active != sys.ActiveCount() {
		t.Errorf("final sample active %d != system %d", final.Active, sys.ActiveCount())
	}
	if final.Active > 0 && final.RateMBps <= 0 {
		t.Error("active system with zero rate")
	}
	if err := in.CheckAllocation(sys.ledger.Alloc()); err != nil {
		t.Errorf("post-replay allocation invalid: %v", err)
	}
	if err := in.CheckDelivery(sys.deliv); err != nil {
		t.Errorf("post-replay delivery invalid: %v", err)
	}
}

func TestReplayRejectsBadTraces(t *testing.T) {
	in := genInstance(t, 8, 30, 3, 9)
	bad := &Trace{Events: []Event{{At: 1, Kind: JoinEvent, User: 999}}}
	if _, _, err := Replay(in, bad, 0); err == nil {
		t.Error("unknown user accepted")
	}
	bad2 := &Trace{Events: []Event{{At: 1, Kind: "teleport", User: 0}}}
	if _, _, err := Replay(in, bad2, 0); err == nil {
		t.Error("unknown kind accepted")
	}
	bad3 := &Trace{Events: []Event{{At: 1, Kind: LeaveEvent, User: 0}}}
	if _, _, err := Replay(in, bad3, 0); err == nil {
		t.Error("leave-before-join accepted")
	}
}

func TestReplayDeterministic(t *testing.T) {
	in := genInstance(t, 10, 50, 3, 10)
	tr, err := GenTrace(in.M(), defaultTraceConfig(), rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := Replay(in, tr, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Replay(in, tr, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
}
