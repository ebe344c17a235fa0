package serve

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"idde/internal/obs"
)

// flightRun executes an outage soak with the flight recorder + SLO
// engine on and returns the engine, report, and triggered-dump sink.
func flightRun(t *testing.T, rate float64) (*Engine, *SoakReport, *bytes.Buffer) {
	t.Helper()
	in := genInstance(t, 10, 60, 4, 11)
	st := solved(t, in)
	sink := &bytes.Buffer{}
	opt := testOptions(7)
	opt.Campaign = outageCampaign(in, st)
	opt.SLO = SLOOptions{Enabled: true}
	opt.FlightRate = rate
	opt.FlightCap = 512
	opt.FlightSink = sink
	e, err := NewEngine(in, st, opt)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.RunSoak(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return e, rep, sink
}

// TestOutcomeHashUnchangedBySampling: turning the flight recorder on
// must not consume rng draws or perturb outcomes in any way.
func TestOutcomeHashUnchangedBySampling(t *testing.T) {
	_, repOff, _ := flightRun(t, 0)
	_, repOn, _ := flightRun(t, 0.3)
	if repOff.OutcomeHash != repOn.OutcomeHash {
		t.Errorf("sampling changed the outcome hash: %s vs %s", repOff.OutcomeHash, repOn.OutcomeHash)
	}
	if repOff.Degraded != repOn.Degraded || repOff.Retries != repOn.Retries {
		t.Error("sampling changed aggregate outcomes")
	}
	if repOff.FlightSampled != 0 {
		t.Errorf("rate 0 sampled %d records", repOff.FlightSampled)
	}
}

// TestSLOBreachTriggersDump: the scripted outage must burn the error
// budget fast enough to breach, and the breach (or the breaker-open
// spike accompanying it) must dump the exemplar ring to the sink with
// records that carry full attempt chains.
func TestSLOBreachTriggersDump(t *testing.T) {
	_, rep, sink := flightRun(t, 0.2)

	if len(rep.SLOs) != 2 {
		t.Fatalf("report has %d SLOs, want 2", len(rep.SLOs))
	}
	avail := rep.SLOs[0]
	if avail.Name != "availability" || avail.Target != 0.999 {
		t.Fatalf("SLO[0] = %+v, want availability@0.999", avail.SLOSnapshot)
	}
	if avail.MaxFastBurn <= 1 {
		t.Errorf("outage never burned the availability budget (max fast burn %g)", avail.MaxFastBurn)
	}
	if avail.Breaches == 0 {
		t.Error("outage never breached the availability SLO")
	}
	if len(avail.Epochs) < 3 {
		t.Errorf("epoch accounting has %d epochs, want >= 3 (healthy/outage/recovered)", len(avail.Epochs))
	} else if avail.Epochs[1].Compliance >= avail.Epochs[0].Compliance {
		t.Errorf("outage epoch compliance %g not worse than healthy epoch %g",
			avail.Epochs[1].Compliance, avail.Epochs[0].Compliance)
	}
	lat := rep.SLOs[1]
	if lat.Name != "latency" || lat.ThresholdMs <= 0 {
		t.Fatalf("SLO[1] = %+v, want latency with a threshold", lat)
	}
	if lat.EstP999Ms < lat.EstP50Ms {
		t.Errorf("histogram estimates out of order: p50 %g > p999 %g", lat.EstP50Ms, lat.EstP999Ms)
	}

	if rep.FlightDumps == 0 {
		t.Fatal("no flight dumps were triggered")
	}
	recs, headers, err := obs.ReadFlightJSONL(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(headers)) != rep.FlightDumps {
		t.Errorf("sink has %d dump headers, report says %d", len(headers), rep.FlightDumps)
	}
	sawBurn := false
	for _, h := range headers {
		if strings.Contains(h.Dump, "slo-burn:") || strings.Contains(h.Dump, "breaker-spike") {
			sawBurn = true
		}
	}
	if !sawBurn {
		t.Errorf("no dump carried a burn/breaker reason: %+v", headers)
	}
	if len(recs) == 0 {
		t.Fatal("dumps carried no records")
	}
	sawChain := false
	for _, rec := range recs {
		if len(rec.Attempts) > 0 && rec.Attempts[0].Breaker != "" {
			sawChain = true
			break
		}
	}
	if !sawChain {
		t.Error("no dumped record carries an attempt chain with a breaker state")
	}
}

// TestServeSLOFlightEndpoints smoke-tests the live control surface.
func TestServeSLOFlightEndpoints(t *testing.T) {
	e, _, _ := flightRun(t, 0.2)
	h := e.Handler()

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/slo", nil))
	body := rr.Body.String()
	if rr.Code != 200 || !strings.Contains(body, `"availability"`) || !strings.Contains(body, `"fast_burn"`) {
		t.Errorf("/slo = %d %q", rr.Code, body)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/flight", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), `"attempts"`) {
		t.Errorf("/flight = %d (%d bytes)", rr.Code, rr.Body.Len())
	}

	var buf bytes.Buffer
	if err := e.DumpFlight(&buf, "recovery-gate"); err != nil {
		t.Fatal(err)
	}
	_, headers, err := obs.ReadFlightJSONL(&buf)
	if err != nil || len(headers) != 1 || headers[0].Dump != "recovery-gate" {
		t.Errorf("DumpFlight: err=%v headers=%+v", err, headers)
	}
}
