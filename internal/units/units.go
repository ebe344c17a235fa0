// Package units defines the physical quantities used throughout the IDDE
// system — transmit power, data size, data rate and latency — as distinct
// named types so that the signal-processing, storage and latency code
// cannot accidentally mix dimensions.
//
// The paper's evaluation (§4.2) quotes bandwidth and data rates in MBps,
// data sizes in MB, powers in Watts and noise in dBm, so those are the
// canonical units here. All types are thin float64 wrappers; arithmetic on
// the underlying values stays allocation-free and vectorizable.
package units

import (
	"fmt"
	"math"
)

// Watts is a transmit power in Watts.
type Watts float64

// DBm is a power expressed in decibel-milliwatts.
type DBm float64

// Watts converts a dBm figure to Watts: P(W) = 10^((dBm-30)/10).
func (d DBm) Watts() Watts {
	return Watts(math.Pow(10, (float64(d)-30)/10))
}

func (w Watts) String() string { return fmt.Sprintf("%gW", float64(w)) }

// MegaBytes is a data volume in MB. Storage capacities and data item
// sizes (Eq. 6) are integral MB in the paper, but fractional values are
// allowed for intermediate arithmetic.
type MegaBytes float64

func (m MegaBytes) String() string { return fmt.Sprintf("%gMB", float64(m)) }

// Rate is a data rate in MB per second (MBps), the unit used for channel
// bandwidth B_{i,x}, user data rates R_j and link speeds in §4.2.
type Rate float64

func (r Rate) String() string { return fmt.Sprintf("%gMBps", float64(r)) }

// Seconds is a latency or duration in seconds. The paper reports
// latencies in milliseconds; Millis provides that view.
type Seconds float64

// Millis reports the duration in milliseconds.
func (s Seconds) Millis() float64 { return float64(s) * 1e3 }

func (s Seconds) String() string {
	if s < 1 {
		return fmt.Sprintf("%.3fms", s.Millis())
	}
	return fmt.Sprintf("%.3fs", float64(s))
}

// TransferTime reports how long moving size at rate takes. A non-positive
// rate yields +Inf, representing an unreachable path.
func TransferTime(size MegaBytes, rate Rate) Seconds {
	if rate <= 0 {
		return Seconds(math.Inf(1))
	}
	return Seconds(float64(size) / float64(rate))
}

// SecondsPerMB is an inverse bandwidth: the cost of moving one MB across
// a link or path. Shortest-path routing minimizes the sum of these, which
// is independent of the data size being moved (the size multiplies every
// hop equally), so all-pairs path costs can be precomputed once.
type SecondsPerMB float64

// Times scales the per-MB cost by a data size, giving a latency.
func (c SecondsPerMB) Times(size MegaBytes) Seconds {
	return Seconds(float64(c) * float64(size))
}

// PerMB returns the inverse of a rate as a per-MB transfer cost.
func PerMB(r Rate) SecondsPerMB {
	if r <= 0 {
		return SecondsPerMB(math.Inf(1))
	}
	return SecondsPerMB(1 / float64(r))
}

// Meters is a planar distance in meters, used by the channel-gain model
// g = η·H^−loss where H is the user–server distance.
type Meters float64

func (m Meters) String() string { return fmt.Sprintf("%gm", float64(m)) }
