package model

import (
	"fmt"

	"idde/internal/units"
)

// Alloc is one user's allocation decision α_j = (i, x): the edge server
// and channel serving the user. The zero decision (paper's (0,0)) is
// represented by the Unallocated sentinel.
type Alloc struct {
	Server  int
	Channel int
}

// Unallocated is α_j = (0,0): the user is not served by any edge server.
var Unallocated = Alloc{Server: -1, Channel: -1}

// Allocated reports whether the decision assigns a server.
func (a Alloc) Allocated() bool { return a.Server >= 0 }

func (a Alloc) String() string {
	if !a.Allocated() {
		return "(unallocated)"
	}
	return fmt.Sprintf("(v%d,c%d)", a.Server, a.Channel)
}

// Allocation is the user allocation profile α = {α_1, …, α_M}.
type Allocation []Alloc

// NewAllocation returns an all-unallocated profile for m users
// (Algorithm 1 line 2 initialization).
func NewAllocation(m int) Allocation {
	a := make(Allocation, m)
	for j := range a {
		a[j] = Unallocated
	}
	return a
}

// Clone deep-copies the profile.
func (a Allocation) Clone() Allocation {
	return append(Allocation(nil), a...)
}

// AllocatedCount reports how many users are allocated.
func (a Allocation) AllocatedCount() int {
	n := 0
	for _, d := range a {
		if d.Allocated() {
			n++
		}
	}
	return n
}

// CheckAllocation enforces Eq. (1): an allocated user must be assigned
// to a covering server and an existing channel.
func (in *Instance) CheckAllocation(a Allocation) error {
	if len(a) != in.M() {
		return fmt.Errorf("model: allocation has %d entries for %d users", len(a), in.M())
	}
	for j, d := range a {
		if !d.Allocated() {
			continue
		}
		if d.Server >= in.N() {
			return fmt.Errorf("model: user %d allocated to unknown server %d", j, d.Server)
		}
		if d.Channel < 0 || d.Channel >= in.Top.Servers[d.Server].Channels {
			return fmt.Errorf("model: user %d allocated to unknown channel %d on server %d", j, d.Channel, d.Server)
		}
		if !in.Top.Covers(d.Server, j) {
			return fmt.Errorf("model: user %d allocated to non-covering server %d (violates Eq. 1)", j, d.Server)
		}
	}
	return nil
}

// Delivery is the data delivery profile σ: which items are replicated
// onto which servers, with per-server storage accounting.
type Delivery struct {
	n, k   int
	placed []bool            // [i*k + item]
	used   []units.MegaBytes // per server
}

// NewDelivery returns an empty profile (nothing on any edge server; the
// cloud implicitly holds everything per Eq. 7).
func NewDelivery(n, k int) *Delivery {
	return &Delivery{n: n, k: k, placed: make([]bool, n*k), used: make([]units.MegaBytes, n)}
}

// Placed reports σ_{i,k}.
func (d *Delivery) Placed(i, k int) bool { return d.placed[i*d.k+k] }

// Used reports the storage consumed on server i.
func (d *Delivery) Used(i int) units.MegaBytes { return d.used[i] }

// Count reports the number of placed replicas.
func (d *Delivery) Count() int {
	n := 0
	for _, p := range d.placed {
		if p {
			n++
		}
	}
	return n
}

// Place sets σ_{i,k}=1, charging size MB to server i. Placing an
// already-placed replica panics — callers must guard, since double
// charging storage would corrupt the Eq. 6 accounting.
func (d *Delivery) Place(i, k int, size units.MegaBytes) {
	if d.placed[i*d.k+k] {
		panic(fmt.Sprintf("model: replica (%d,%d) placed twice", i, k))
	}
	d.placed[i*d.k+k] = true
	d.used[i] += size
}

// Clone deep-copies the profile.
func (d *Delivery) Clone() *Delivery {
	return &Delivery{
		n: d.n, k: d.k,
		placed: append([]bool(nil), d.placed...),
		used:   append([]units.MegaBytes(nil), d.used...),
	}
}

// CheckDelivery enforces the storage constraint of Eq. (6) and verifies
// the internal accounting.
func (in *Instance) CheckDelivery(d *Delivery) error {
	if d.n != in.N() || d.k != in.K() {
		return fmt.Errorf("model: delivery sized %dx%d for instance %dx%d", d.n, d.k, in.N(), in.K())
	}
	for i := 0; i < in.N(); i++ {
		var vol units.MegaBytes
		for k := 0; k < in.K(); k++ {
			if d.Placed(i, k) {
				vol += in.Wl.Items[k].Size
			}
		}
		if vol != d.used[i] {
			return fmt.Errorf("model: server %d accounting drift: %v recorded vs %v actual", i, d.used[i], vol)
		}
		if vol > in.Wl.Capacity[i] {
			return fmt.Errorf("model: server %d stores %v over capacity %v (violates Eq. 6)", i, vol, in.Wl.Capacity[i])
		}
	}
	return nil
}

// DeliveryMode states how data physically reaches users under a
// strategy. The paper's central argument is that only approaches aware
// of edge-server collaboration can route requests through the wired
// edge network (Eq. 8); the baselines it compares against deliver from
// a narrower set of sources, and their measured latency reflects that.
type DeliveryMode int

const (
	// Collaborative delivery (IDDE-G, IDDE-IP): a request is served
	// from any edge server holding the item, over the cheapest wired
	// path to the user's serving server, or from the cloud (Eq. 8).
	Collaborative DeliveryMode = iota
	// CoverageLocal delivery (SAA): a request is served directly over
	// the air from any *covering* server holding the item, else from
	// the cloud.
	CoverageLocal
	// ServerLocal delivery (CDP, DUP-G): a request is served only when
	// the user's own serving server holds the item, else from the
	// cloud.
	ServerLocal
)

func (m DeliveryMode) String() string {
	switch m {
	case Collaborative:
		return "collaborative"
	case CoverageLocal:
		return "coverage-local"
	case ServerLocal:
		return "server-local"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Strategy is a complete IDDE strategy: both profiles plus the delivery
// mode they are executed under, as returned by Algorithm 1 line 27.
type Strategy struct {
	Alloc    Allocation
	Delivery *Delivery
	// Mode defaults to Collaborative (the paper's system model).
	Mode DeliveryMode
}

// Check validates both profiles against the instance.
func (in *Instance) Check(s Strategy) error {
	if err := in.CheckAllocation(s.Alloc); err != nil {
		return err
	}
	return in.CheckDelivery(s.Delivery)
}
