// Package workload models the app vendor's side of an IDDE scenario:
// the catalog of data items D with sizes s_k, the request matrix ζ_{j,k}
// describing which user wants which data, and the storage reservations
// A_i available on each edge server (the Eq. 6 budget).
//
// The paper's experiments draw item sizes from {30, 60, 90} MB, storage
// reservations from [30, 300] MB per server, and leave request
// popularity unspecified; we use a Zipf popularity profile, the standard
// model for content access in edge-caching literature (a uniform profile
// is available by setting the skew to 0).
package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"idde/internal/rng"
	"idde/internal/units"
)

// Item is a data item d_k in the vendor's catalog.
type Item struct {
	ID   int             `json:"id"`
	Size units.MegaBytes `json:"size"`
}

// Workload bundles everything the delivery phase optimizes over.
type Workload struct {
	Items []Item `json:"items"`
	// Requests[j] lists the item ids requested by user j, ascending;
	// it is the sparse form of the ζ_{j,k} matrix.
	Requests [][]int `json:"requests"`
	// Capacity[i] is the storage reservation A_i on server i.
	Capacity []units.MegaBytes `json:"capacity"`
}

// K reports the catalog size.
func (w *Workload) K() int { return len(w.Items) }

// TotalRequests reports Σ_j Σ_k ζ_{j,k}, the denominator of Eq. 9.
func (w *Workload) TotalRequests() int {
	total := 0
	for _, r := range w.Requests {
		total += len(r)
	}
	return total
}

// TotalCapacity reports Σ_i A_i, the system-wide storage reservation.
func (w *Workload) TotalCapacity() units.MegaBytes {
	var total units.MegaBytes
	for _, a := range w.Capacity {
		total += a
	}
	return total
}

// MaxItemSize reports s_max, the largest item size (the fragmentation
// term of Theorem 7).
func (w *Workload) MaxItemSize() units.MegaBytes {
	var max units.MegaBytes
	for _, it := range w.Items {
		if it.Size > max {
			max = it.Size
		}
	}
	return max
}

// Validate checks internal consistency against a user count m and
// server count n.
func (w *Workload) Validate(n, m int) error {
	if len(w.Requests) != m {
		return fmt.Errorf("workload: %d request rows for %d users", len(w.Requests), m)
	}
	if len(w.Capacity) != n {
		return fmt.Errorf("workload: %d capacity entries for %d servers", len(w.Capacity), n)
	}
	for i, it := range w.Items {
		if it.ID != i {
			return fmt.Errorf("workload: item %d has id %d", i, it.ID)
		}
		if it.Size <= 0 {
			return fmt.Errorf("workload: item %d has size %v", i, it.Size)
		}
	}
	for j, reqs := range w.Requests {
		seen := make(map[int]bool, len(reqs))
		for _, k := range reqs {
			if k < 0 || k >= len(w.Items) {
				return fmt.Errorf("workload: user %d requests unknown item %d", j, k)
			}
			if seen[k] {
				return fmt.Errorf("workload: user %d requests item %d twice", j, k)
			}
			seen[k] = true
		}
	}
	for i, a := range w.Capacity {
		if a < 0 {
			return fmt.Errorf("workload: server %d has negative capacity", i)
		}
	}
	return nil
}

// GenConfig parametrizes workload generation.
type GenConfig struct {
	Items int // K
	// SizeChoices are the allowed item sizes ({30,60,90} MB in §4.2).
	SizeChoices []units.MegaBytes
	// Capacity is the per-server reservation range ([30,300] MB).
	Capacity [2]units.MegaBytes
	// ZipfSkew shapes item popularity (0 = uniform).
	ZipfSkew float64
	// ExtraRequestProb is the chance a user requests a second (distinct)
	// item; every user requests at least one, as in the paper's example
	// where most users want one item and some want two.
	ExtraRequestProb float64
}

// DefaultGen mirrors §4.2 for a K-item catalog.
func DefaultGen(items int) GenConfig {
	return GenConfig{
		Items:            items,
		SizeChoices:      []units.MegaBytes{30, 60, 90},
		Capacity:         [2]units.MegaBytes{30, 300},
		ZipfSkew:         0.8,
		ExtraRequestProb: 0.3,
	}
}

// Generate builds a workload for m users over n servers.
func Generate(cfg GenConfig, n, m int, s *rng.Stream) (*Workload, error) {
	if cfg.Items <= 0 {
		return nil, fmt.Errorf("workload: invalid item count %d", cfg.Items)
	}
	if len(cfg.SizeChoices) == 0 {
		return nil, fmt.Errorf("workload: no size choices")
	}
	w := &Workload{
		Items:    make([]Item, cfg.Items),
		Requests: make([][]int, m),
		Capacity: make([]units.MegaBytes, n),
	}
	items := s.Split("items")
	for k := range w.Items {
		w.Items[k] = Item{ID: k, Size: cfg.SizeChoices[items.IntN(len(cfg.SizeChoices))]}
	}
	cap := s.Split("capacity")
	for i := range w.Capacity {
		w.Capacity[i] = units.MegaBytes(cap.IntRange(int(cfg.Capacity[0]), int(cfg.Capacity[1])))
	}
	req := s.Split("requests")
	zipf := req.NewZipf(cfg.ZipfSkew, cfg.Items)
	for j := 0; j < m; j++ {
		first := zipf.Draw()
		w.Requests[j] = []int{first}
		if cfg.Items > 1 && req.Bool(cfg.ExtraRequestProb) {
			second := zipf.Draw()
			for second == first {
				second = zipf.Draw()
			}
			w.Requests[j] = append(w.Requests[j], second)
			sort.Ints(w.Requests[j])
		}
	}
	return w, w.Validate(n, m)
}

// Save writes the workload as indented JSON.
func (w *Workload) Save(out io.Writer) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(w)
}
