// Package des is a discrete-event simulator for the data transfers an
// IDDE strategy implies. The paper evaluates latency analytically
// (Eq. 8 assumes every transfer sees the full link bandwidth); this
// simulator executes the same transfers on an event calendar with
// FIFO link contention, so the analytic numbers can be validated and
// the strategy's behaviour under burst load studied — the kind of
// system-level check a deployable edge storage system needs.
//
// The core is a conventional event calendar (binary heap on virtual
// time); on top of it, Simulate models each wired inter-server link and
// each server's cloud ingress as a FIFO store-and-forward resource.
package des

import (
	"container/heap"
	"fmt"

	"idde/internal/units"
)

// calendar runs scheduled events in virtual-time order. The zero value
// is ready to use.
type calendar struct {
	now units.Seconds
	pq  eventHeap
	seq int
}

// Now reports the current virtual time.
func (s *calendar) Now() units.Seconds { return s.now }

// Schedule enqueues fn to run at time at. Scheduling in the past
// panics — it would silently reorder causality.
func (s *calendar) Schedule(at units.Seconds, fn func()) {
	if at < s.now {
		panic(fmt.Sprintf("des: scheduling at %v before now %v", at, s.now))
	}
	heap.Push(&s.pq, event{at: at, seq: s.seq, fn: fn})
	s.seq++
}

// Run executes events in time order until the calendar is empty,
// returning the final virtual time.
func (s *calendar) Run() units.Seconds {
	for s.pq.Len() > 0 {
		ev := heap.Pop(&s.pq).(event)
		s.now = ev.at
		ev.fn()
	}
	return s.now
}

// Steps reports how many events have been scheduled so far.
func (s *calendar) Steps() int { return s.seq }

type event struct {
	at  units.Seconds
	seq int // FIFO tie-break for simultaneous events
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

// resource is a FIFO store-and-forward server (a wired link direction
// or a cloud ingress): requests are serviced one at a time in arrival
// order at a fixed rate.
type resource struct {
	Rate      units.Rate
	busyUntil units.Seconds
}

// Acquire reserves the resource for moving size bytes starting no
// earlier than at, returning the completion time.
func (r *resource) Acquire(at units.Seconds, size units.MegaBytes) units.Seconds {
	start := at
	if r.busyUntil > start {
		start = r.busyUntil
	}
	d := units.TransferTime(size, r.Rate)
	r.busyUntil = start + d
	return r.busyUntil
}
