package workload

import (
	"bytes"
	"encoding/json"
	"testing"

	"idde/internal/rng"
	"idde/internal/units"
)

func gen(t *testing.T, k, n, m int, seed uint64) *Workload {
	t.Helper()
	w, err := Generate(DefaultGen(k), n, m, rng.New(seed))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return w
}

func TestGenerateShape(t *testing.T) {
	w := gen(t, 5, 30, 200, 1)
	if w.K() != 5 {
		t.Errorf("K = %d", w.K())
	}
	if len(w.Requests) != 200 || len(w.Capacity) != 30 {
		t.Errorf("shape wrong: %d requests, %d capacities", len(w.Requests), len(w.Capacity))
	}
	if err := w.Validate(30, 200); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestGenerateRanges(t *testing.T) {
	w := gen(t, 8, 40, 300, 2)
	for _, it := range w.Items {
		if it.Size != 30 && it.Size != 60 && it.Size != 90 {
			t.Errorf("item size %v not in {30,60,90}", it.Size)
		}
	}
	for _, a := range w.Capacity {
		if a < 30 || a > 300 {
			t.Errorf("capacity %v out of [30,300]", a)
		}
	}
	for j, reqs := range w.Requests {
		if len(reqs) < 1 || len(reqs) > 2 {
			t.Errorf("user %d has %d requests", j, len(reqs))
		}
		if len(reqs) == 2 && reqs[0] >= reqs[1] {
			t.Errorf("user %d requests not sorted/distinct: %v", j, reqs)
		}
	}
}

func TestZipfPopularityHead(t *testing.T) {
	w := gen(t, 8, 30, 5000, 3)
	counts := make([]int, 8)
	for _, reqs := range w.Requests {
		for _, k := range reqs {
			counts[k]++
		}
	}
	if counts[0] <= counts[7] {
		t.Errorf("head item (%d) not more popular than tail (%d)", counts[0], counts[7])
	}
}

func TestTotals(t *testing.T) {
	w := &Workload{
		Items:    []Item{{ID: 0, Size: 30}, {ID: 1, Size: 90}},
		Requests: [][]int{{0}, {0, 1}, {1}},
		Capacity: []units.MegaBytes{100, 50},
	}
	if w.TotalRequests() != 4 {
		t.Errorf("TotalRequests = %d", w.TotalRequests())
	}
	if w.TotalCapacity() != 150 {
		t.Errorf("TotalCapacity = %v", w.TotalCapacity())
	}
	if w.MaxItemSize() != 90 {
		t.Errorf("MaxItemSize = %v", w.MaxItemSize())
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	base := func() *Workload {
		return &Workload{
			Items:    []Item{{ID: 0, Size: 30}, {ID: 1, Size: 60}},
			Requests: [][]int{{0}, {1}},
			Capacity: []units.MegaBytes{100},
		}
	}
	if err := base().Validate(1, 2); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	w := base()
	w.Items[1].ID = 7
	if w.Validate(1, 2) == nil {
		t.Error("bad item id accepted")
	}
	w = base()
	w.Items[0].Size = 0
	if w.Validate(1, 2) == nil {
		t.Error("zero size accepted")
	}
	w = base()
	w.Requests[0] = []int{5}
	if w.Validate(1, 2) == nil {
		t.Error("unknown item request accepted")
	}
	w = base()
	w.Requests[0] = []int{0, 0}
	if w.Validate(1, 2) == nil {
		t.Error("duplicate request accepted")
	}
	w = base()
	w.Capacity[0] = -1
	if w.Validate(1, 2) == nil {
		t.Error("negative capacity accepted")
	}
	if base().Validate(2, 2) == nil {
		t.Error("capacity/server mismatch accepted")
	}
	if base().Validate(1, 3) == nil {
		t.Error("request/user mismatch accepted")
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(DefaultGen(0), 5, 5, rng.New(1)); err == nil {
		t.Error("K=0 accepted")
	}
	cfg := DefaultGen(3)
	cfg.SizeChoices = nil
	if _, err := Generate(cfg, 5, 5, rng.New(1)); err == nil {
		t.Error("empty size choices accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := gen(t, 5, 30, 100, 9)
	b := gen(t, 5, 30, 100, 9)
	for k := range a.Items {
		if a.Items[k] != b.Items[k] {
			t.Fatal("items differ")
		}
	}
	for j := range a.Requests {
		if len(a.Requests[j]) != len(b.Requests[j]) {
			t.Fatal("requests differ")
		}
		for x := range a.Requests[j] {
			if a.Requests[j][x] != b.Requests[j][x] {
				t.Fatal("requests differ")
			}
		}
	}
}

func TestSingleItemCatalogNeverDuplicates(t *testing.T) {
	// With K=1 the "extra request" branch must not loop forever or
	// duplicate.
	w := gen(t, 1, 5, 50, 4)
	for j, reqs := range w.Requests {
		if len(reqs) != 1 || reqs[0] != 0 {
			t.Errorf("user %d requests %v", j, reqs)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	w := gen(t, 6, 20, 80, 5)
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got := &Workload{}
	if err := json.Unmarshal(buf.Bytes(), got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := got.Validate(20, 80); err != nil {
		t.Errorf("round-trip workload invalid: %v", err)
	}
	if got.K() != w.K() || got.TotalRequests() != w.TotalRequests() || got.TotalCapacity() != w.TotalCapacity() {
		t.Error("round trip changed workload")
	}
}
