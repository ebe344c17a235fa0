//go:build !race

package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// evaluationDigests are the SHA-256 digests of every Figure 3–6 CSV
// that `iddebench -fig 0 -reps 1 -seed 2022` writes, keyed by the file
// name. Figure 7 is wall-clock time and is left out.
var evaluationDigests = map[string]string{
	"fig3a_rate.csv":    "b9ad7bc4ce542c9ab1dd22e9c256192bffcc4185144e80483c59d6657b3f94ab",
	"fig3b_latency.csv": "c41f39534aef29a694508226fe7e527ab894178f1babfe72f6151855dccfc3ad",
	"fig4a_rate.csv":    "00904e98b7472d27076557fa4aa61c18262c6ff4c13e453717a024357dd5e7f7",
	"fig4b_latency.csv": "f193bebb0b6715d836ff9bc7f060ddaa9db9a099f05fa30e95538929412132be",
	"fig5a_rate.csv":    "e82774cb97862d65d06bf793b1807e79dc9f7db023b48a33be44ef0878a64835",
	"fig5b_latency.csv": "7d7443f81bca5de91e645f4167ebce914bc8224125f49aca29575cc1bbba53e7",
	"fig6a_rate.csv":    "9a4bf067c80f095c880b682b4f48ec26c7a63bc11d4306c16958db01797a150d",
	"fig6b_latency.csv": "b1d5d452b28cfb923c9115a6be4a35285b4d682ed3fa9ede96d6896c0c1306f6",
}

// TestEvaluationPinned runs all four Table 2 sets at one repetition
// with the default approaches, IDDE-IP at its default evaluation count
// included, and requires every rate and latency CSV to hash to its
// recorded digest: every plotted number depends on the seed alone, not
// on the host's speed, its load or GOMAXPROCS. A deliberate output
// change re-records the digests the failure messages print.
func TestEvaluationPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("a one-repetition sweep of all four sets")
	}
	figure := map[int]string{1: "fig3", 2: "fig4", 3: "fig5", 4: "fig6"}
	for _, set := range Sets() {
		sr, err := RunSet(set, Config{Reps: 1, Seed: 2022})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			suffix string
			m      Metric
		}{{"a_rate.csv", RateMetric}, {"b_latency.csv", LatencyMetric}} {
			name := figure[set.ID] + c.suffix
			sum := sha256.Sum256([]byte(sr.CSV(c.m)))
			if got := hex.EncodeToString(sum[:]); got != evaluationDigests[name] {
				t.Errorf("%s: digest %s, recorded %s; the CSV is\n%s", name, got, evaluationDigests[name], sr.CSV(c.m))
			}
		}
	}
}
