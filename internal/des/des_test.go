package des

import (
	"math"
	"testing"

	"idde/internal/units"
)

func TestSimRunsInTimeOrder(t *testing.T) {
	var sim calendar
	var got []int
	sim.Schedule(3, func() { got = append(got, 3) })
	sim.Schedule(1, func() { got = append(got, 1) })
	sim.Schedule(2, func() { got = append(got, 2) })
	end := sim.Run()
	if end != 3 {
		t.Errorf("end time = %v", end)
	}
	for i, v := range []int{1, 2, 3} {
		if got[i] != v {
			t.Fatalf("order = %v", got)
		}
	}
}

func TestSimFIFOTieBreak(t *testing.T) {
	var sim calendar
	var got []int
	for i := 0; i < 5; i++ {
		sim.Schedule(1, func() { got = append(got, i) })
	}
	sim.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("simultaneous events reordered: %v", got)
		}
	}
}

func TestSimNestedScheduling(t *testing.T) {
	var sim calendar
	hits := 0
	sim.Schedule(1, func() {
		hits++
		sim.Schedule(sim.Now()+1, func() { hits++ })
	})
	if end := sim.Run(); end != 2 || hits != 2 {
		t.Errorf("end=%v hits=%d", end, hits)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var sim calendar
	sim.Schedule(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("past scheduling did not panic")
			}
		}()
		sim.Schedule(1, func() {})
	})
	sim.Run()
}

func TestResourceFIFO(t *testing.T) {
	r := resource{Rate: 100} // 100 MBps
	// First transfer: 50MB at t=0 → done at 0.5.
	if done := r.Acquire(0, 50); done != 0.5 {
		t.Errorf("first done = %v", done)
	}
	// Second arrives at 0.2, must queue until 0.5 → done at 1.0.
	if done := r.Acquire(0.2, 50); done != 1.0 {
		t.Errorf("queued done = %v", done)
	}
	// Third arrives after idle gap: starts immediately.
	if done := r.Acquire(2.0, 100); done != 3.0 {
		t.Errorf("idle-start done = %v", done)
	}
}

func TestResourceZeroRate(t *testing.T) {
	r := resource{Rate: 0}
	if done := r.Acquire(0, 10); !math.IsInf(float64(done), 1) {
		t.Errorf("zero-rate done = %v", done)
	}
	_ = units.Seconds(0)
}
