package online

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"idde/internal/experiment"
	"idde/internal/rng"
	"idde/internal/units"
)

// TestReplayPinned pins Replay's samples and Stats, bit for bit, on the
// default iddechurn configuration, on that configuration at seed 2022
// and on a denser N=40, M=400 universe at 0.2 arrivals per second. Any
// change to the incremental best-response rule, the re-equilibration
// waves or the on-demand placement shows up here.
func TestReplayPinned(t *testing.T) {
	cases := []struct {
		name     string
		n, m     int
		seed     uint64
		arrivals float64
		want     string
	}{
		{"default", 20, 150, 1, 0.05, "928fb416e2f6fec1431ebb76b290be7becc209c6800eb70b38f053cb78b23f00"},
		{"seed2022", 20, 150, 2022, 0.05, "461488ee9415fc205f641303a80cc695fbf7ddfcf03e0abf6fe776ce417f7ff3"},
		{"dense", 40, 400, 1, 0.2, "93191781c8c5447797be63e23ff876562360174c0af3a8baf74307455dbae470"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in, err := experiment.BuildInstance(experiment.Params{N: c.n, M: c.m, K: 5, Density: 1}, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := GenTrace(c.m, GenTraceConfig{
				Horizon: units.Seconds(3600), MeanArrivalsPerSec: c.arrivals, MeanDwellSec: 600,
			}, rng.New(c.seed).Split("trace"))
			if err != nil {
				t.Fatal(err)
			}
			samples, sys, err := Replay(in, tr, 25)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, s := range samples {
				fmt.Fprintf(h, "%x %d %x %x %d\n", math.Float64bits(float64(s.At)), s.Active,
					math.Float64bits(s.RateMBps), math.Float64bits(s.LatencyMs), s.Moves)
			}
			st := sys.Stats()
			fmt.Fprintf(h, "%d %d %d %d\n", st.Joins, st.Leaves, st.Moves, st.Placements)
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != c.want {
				t.Errorf("replay digest %s, want %s (stats %+v, %d samples)", got, c.want, st, len(samples))
			}
		})
	}
}
