package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDBmToWatts(t *testing.T) {
	cases := []struct {
		dbm  DBm
		want Watts
	}{
		{30, 1},                        // 30 dBm = 1 W
		{0, 0.001},                     // 0 dBm = 1 mW
		{-30, 1e-6},                    // -30 dBm = 1 µW
		{-174, 3.9810717055349565e-21}, // thermal noise floor used in §4.2
	}
	for _, c := range cases {
		got := c.dbm.Watts()
		if math.Abs(float64(got-c.want)) > 1e-9*math.Abs(float64(c.want)) {
			t.Errorf("DBm(%v).Watts() = %v, want %v", c.dbm, got, c.want)
		}
	}
}

func TestWattsToDBmRoundTrip(t *testing.T) {
	f := func(raw float64) bool {
		// Map raw into a positive power range (1 pW .. 100 W).
		p := Watts(1e-12 + math.Mod(math.Abs(raw), 100))
		back := DBm(10*math.Log10(float64(p)) + 30).Watts()
		return math.Abs(float64(back-p)) < 1e-9*float64(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTransferTime(t *testing.T) {
	if got := TransferTime(600, 600); got != 1 {
		t.Errorf("600MB at 600MBps = %v, want 1s", got)
	}
	if got := TransferTime(30, 6000); math.Abs(float64(got)-0.005) > 1e-12 {
		t.Errorf("30MB at 6000MBps = %v, want 5ms", got)
	}
	if got := TransferTime(30, 0); !math.IsInf(float64(got), 1) {
		t.Errorf("zero rate should be +Inf, got %v", got)
	}
	if got := TransferTime(30, -5); !math.IsInf(float64(got), 1) {
		t.Errorf("negative rate should be +Inf, got %v", got)
	}
}

func TestPerMBTimesMatchesTransferTime(t *testing.T) {
	f := func(sizeRaw, rateRaw float64) bool {
		size := MegaBytes(math.Mod(math.Abs(sizeRaw), 1000))
		rate := Rate(1 + math.Mod(math.Abs(rateRaw), 6000))
		direct := TransferTime(size, rate)
		viaCost := PerMB(rate).Times(size)
		return math.Abs(float64(direct-viaCost)) <= 1e-12*math.Max(1, math.Abs(float64(direct)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPerMBNonPositive(t *testing.T) {
	if c := PerMB(0); !math.IsInf(float64(c), 1) {
		t.Errorf("PerMB(0) = %v, want +Inf", c)
	}
}

func TestSecondsViews(t *testing.T) {
	s := Seconds(0.0125)
	if s.Millis() != 12.5 {
		t.Errorf("Millis = %v, want 12.5", s.Millis())
	}
}

func TestStringFormats(t *testing.T) {
	if s := Seconds(0.005).String(); s != "5.000ms" {
		t.Errorf("sub-second String = %q", s)
	}
	if s := Seconds(2.5).String(); s != "2.500s" {
		t.Errorf("seconds String = %q", s)
	}
	if s := MegaBytes(90).String(); s != "90MB" {
		t.Errorf("MegaBytes String = %q", s)
	}
	if s := Rate(200).String(); s != "200MBps" {
		t.Errorf("Rate String = %q", s)
	}
	if s := Watts(2).String(); s != "2W" {
		t.Errorf("Watts String = %q", s)
	}
	if s := Meters(450).String(); s != "450m" {
		t.Errorf("Meters String = %q", s)
	}
}
