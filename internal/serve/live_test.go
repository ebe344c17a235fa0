package serve

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"
)

// gateWriter is a flight sink whose first Write waits for open to be
// closed: it holds the soak at its first triggered dump until the
// client goroutine has done its injection, so the injection lands in
// the middle of the soak.
type gateWriter struct {
	open chan struct{}
	once sync.Once
	t    *testing.T
}

func (g *gateWriter) Write(p []byte) (int, error) {
	g.once.Do(func() {
		select {
		case <-g.open:
		case <-time.After(10 * time.Second):
			g.t.Error("client goroutine never injected")
		}
	})
	return len(p), nil
}

// TestLiveSoakConcurrentClients runs the configuration iddeserve -addr
// serves — the async re-planner, an outage campaign, the flight
// recorder with triggered dumps and the SLO engine — without pacing,
// while a second goroutine plays the HTTP client: it polls /state, /slo
// and /flight throughout and POSTs one /inject mid-soak. Under -race
// this checks that all state the handlers and the re-planner share with
// the soak goroutine is guarded. In every mode it checks that every
// request terminates and that the soak leaves no goroutine behind.
func TestLiveSoakConcurrentClients(t *testing.T) {
	in := genInstance(t, 10, 60, 4, 11)
	st := solved(t, in)
	gate := &gateWriter{open: make(chan struct{}), t: t}
	opt := testOptions(7)
	opt.Duration = 40
	opt.Campaign = outageCampaign(in, st)
	opt.AsyncReplan = true
	opt.SLO = SLOOptions{Enabled: true}
	opt.FlightRate = 0.2
	opt.FlightSink = gate
	e, err := NewEngine(in, st, opt)
	if err != nil {
		t.Fatal(err)
	}
	other := (PopularSource(in, st) + 1) % in.N()

	before := runtime.NumGoroutine()
	h := e.Handler()
	stop := make(chan struct{})
	var client sync.WaitGroup
	client.Add(1)
	go func() {
		defer client.Done()
		injected := false
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, path := range []string{"/state", "/slo", "/flight"} {
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
				if rr.Code != 200 {
					t.Errorf("GET %s = %d", path, rr.Code)
				}
			}
			if !injected && e.Now() > 0 {
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest("POST", fmt.Sprintf("/inject?kind=outage&servers=%d&duration=3", other), nil))
				if rr.Code != 200 {
					t.Errorf("POST /inject = %d %q", rr.Code, rr.Body.String())
				}
				injected = true
				close(gate.open)
			}
		}
	}()

	rep, err := e.RunSoak(context.Background())
	close(stop)
	client.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped != 0 || rep.Issued != int64(rep.Rounds*rep.PerRound) {
		t.Errorf("issued %d, dropped %d, want %d issued and none dropped", rep.Issued, rep.Dropped, rep.Rounds*rep.PerRound)
	}
	if rep.FlightDumps == 0 {
		t.Error("no flight dump fired, so the injection was not held mid-soak")
	}
	if err := e.DumpFlight(io.Discard, "end"); err != nil {
		t.Error(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the soak, %d before", n, before)
	}
}
