// Package units provides the exact integer arithmetic the simulator is
// built on: picosecond-resolution timestamps, bit rates, and byte
// quantities. Picoseconds keep per-byte serialization delays exact even
// at 400 Gbps (1 byte = 20 ps), so simulations are deterministic and
// free of floating-point drift.
package units

import (
	"fmt"
	"math/bits"
)

// Time is an absolute simulation timestamp in picoseconds.
type Time int64

// Duration is a span of simulation time in picoseconds.
type Duration int64

// Convenient duration constants.
const (
	Picosecond  Duration = 1
	Nanosecond  Duration = 1000
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// FromNanos converts a nanosecond count (e.g. a wall-clock flag value)
// to a simulation Duration.
func FromNanos(ns int64) Duration { return Duration(ns) * Nanosecond }

// Add offsets a timestamp by a duration.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds converts the timestamp to floating-point seconds (for reporting).
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Microseconds converts the timestamp to floating-point microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds converts a duration to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Microseconds converts a duration to floating-point microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

func (t Time) String() string { return Duration(t).String() }

func (d Duration) String() string {
	switch {
	case d < 0:
		return "-" + (-d).String()
	case d < Nanosecond:
		return fmt.Sprintf("%dps", int64(d))
	case d < Microsecond:
		return fmt.Sprintf("%.3gns", float64(d)/float64(Nanosecond))
	case d < Millisecond:
		return fmt.Sprintf("%.4gus", float64(d)/float64(Microsecond))
	case d < Second:
		return fmt.Sprintf("%.4gms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.4gs", float64(d)/float64(Second))
	}
}

// BitRate is a link or flow rate in bits per second.
type BitRate int64

// Convenient rate constants.
const (
	BitPerSecond BitRate = 1
	Kbps                 = 1000 * BitPerSecond
	Mbps                 = 1000 * Kbps
	Gbps                 = 1000 * Mbps
)

// Gbits reports the rate in floating-point gigabits per second.
func (r BitRate) Gbits() float64 { return float64(r) / float64(Gbps) }

func (r BitRate) String() string {
	switch {
	case r >= Gbps:
		return fmt.Sprintf("%.4gGbps", float64(r)/float64(Gbps))
	case r >= Mbps:
		return fmt.Sprintf("%.4gMbps", float64(r)/float64(Mbps))
	case r >= Kbps:
		return fmt.Sprintf("%.4gKbps", float64(r)/float64(Kbps))
	default:
		return fmt.Sprintf("%dbps", int64(r))
	}
}

// ByteSize is a quantity of bytes (buffer occupancy, window, flow size).
type ByteSize int64

// Convenient size constants.
const (
	Byte ByteSize = 1
	KB            = 1000 * Byte
	MB            = 1000 * KB
	KiB           = 1024 * Byte
	MiB           = 1024 * KiB
)

// KBytes reports the size in floating-point kilobytes.
func (s ByteSize) KBytes() float64 { return float64(s) / float64(KB) }

// MBytes reports the size in floating-point megabytes.
func (s ByteSize) MBytes() float64 { return float64(s) / float64(MB) }

func (s ByteSize) String() string {
	switch {
	case s < 0:
		return "-" + (-s).String()
	case s >= MB:
		return fmt.Sprintf("%.4gMB", s.MBytes())
	case s >= KB:
		return fmt.Sprintf("%.4gKB", s.KBytes())
	default:
		return fmt.Sprintf("%dB", int64(s))
	}
}

// TxTime returns the exact serialization delay of size bytes at rate r,
// rounded up to a whole picosecond so a transmitter can never finish
// "early". r must be positive.
func TxTime(size ByteSize, r BitRate) Duration {
	if r <= 0 {
		panic("units: non-positive bit rate")
	}
	nbits := int64(size) * 8
	// delay_ps = ceil(bits * 1e12 / r); 128-bit intermediate keeps this
	// exact for arbitrarily large transfers.
	return Duration(mulDivCeil(nbits, int64(Second), int64(r)))
}

// BytesOver returns how many whole bytes rate r transfers in duration d.
func BytesOver(r BitRate, d Duration) ByteSize {
	if d <= 0 {
		return 0
	}
	bits := mulDiv(int64(r), int64(d), int64(Second))
	return ByteSize(bits / 8)
}

// BDP returns the bandwidth-delay product of a link with rate r and
// round-trip delay d, in bytes (rounded down).
func BDP(r BitRate, d Duration) ByteSize { return BytesOver(r, d) }

// mulDiv computes a*b/c (truncated) with a 128-bit intermediate product.
// All arguments must be non-negative and c positive.
func mulDiv(a, b, c int64) int64 {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	q, _ := bits.Div64(hi, lo, uint64(c))
	return int64(q)
}

// mulDivCeil computes ceil(a*b/c) with a 128-bit intermediate product.
func mulDivCeil(a, b, c int64) int64 {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	q, r := bits.Div64(hi, lo, uint64(c))
	if r != 0 {
		q++
	}
	return int64(q)
}

// Rate returns the average bit rate of size bytes over duration d.
func Rate(size ByteSize, d Duration) BitRate {
	if d <= 0 {
		return 0
	}
	return BitRate(mulDiv(int64(size)*8, int64(Second), int64(d)))
}
