// Package core implements Floodgate, the paper's contribution: a
// switch-based per-hop, per-destination flow control. Each switch
// maintains a sending window per destination host; forwarding a data
// packet consumes window, and the downstream switch returns credits —
// aggregated on a timer in the practical design, per packet in the
// ideal/strawman design. Destinations whose window exhausts are incast
// suspects: their packets are parked in dynamically allocated Virtual
// Output Queues so non-incast traffic is never head-of-line blocked.
// The module also implements delayCredit, VOQ up/down grouping against
// deadlock, PSN-based loss recovery with switchSYN resync, and the
// optional per-destination host PAUSE.
package core

import (
	"floodgate/internal/units"
)

// Mode selects the paper's two designs.
type Mode uint8

// Modes.
const (
	// Practical is the final design (§4): timer-aggregated credits,
	// window = BDP_nextHop + C_out·T, delayCredit.
	Practical Mode = iota
	// Ideal is the strawman (§3.2): per-packet credits and window =
	// M × BDP_nextHop. The paper's "ideal" curves also enable per-dst
	// PAUSE (§4.3); set PerDstPause alongside.
	Ideal
)

// escapeTimeout is the credit-stall escape hatch (robustness
// extension): a window that has gone this long without any credit
// while bytes are outstanding probes every downstream channel — even
// ones the normal SYN condition would skip — so a restarted or
// desynchronized downstream switch cannot strand the window forever.
const escapeTimeout = 800 * units.Microsecond

// Config parameterises one switch's Floodgate instance. All byte
// thresholds are absolute; the experiment layer converts the paper's
// BDP-denominated defaults.
type Config struct {
	Mode Mode

	// M is the ideal-mode window multiplier (§6: m = 1.5).
	M float64

	// CreditTimer is T, the per-ingress-port credit aggregation period
	// (§6: 10 µs). Ignored in Ideal mode.
	CreditTimer units.Duration

	// DelayCreditThresh is thre_credit: credits for a destination are
	// withheld while its local VOQ backlog exceeds this (§6: 10 BDP).
	DelayCreditThresh units.ByteSize

	// MaxVOQs bounds the per-switch VOQ pool (§6: 100).
	MaxVOQs int

	// VOQGrouping reserves half the pool for downstream (same-pod)
	// destinations on middle-layer switches, breaking the Fig 4
	// hold-and-wait cycle.
	VOQGrouping bool

	// SYNTimeout is how long an exhausted window waits for credits
	// before probing the downstream switch with a switchSYN (§4.3).
	SYNTimeout units.Duration

	// PerDstPause enables the optional host support (§4.3): first-hop
	// ToRs pause per-destination NIC queues when a VOQ exceeds
	// PauseThreshOff and resume below PauseThreshOn (≈ one-hop BDP).
	PerDstPause    bool
	PauseThreshOff units.ByteSize
	PauseThreshOn  units.ByteSize
}

// DefaultConfig returns the paper's §6 parameter binding given the
// network's base BDP (64 KB on the 2-tier fabric).
func DefaultConfig(baseBDP units.ByteSize) Config {
	return Config{
		Mode:              Practical,
		M:                 1.5,
		CreditTimer:       10 * units.Microsecond,
		DelayCreditThresh: 10 * baseBDP,
		MaxVOQs:           100,
		VOQGrouping:       true,
		SYNTimeout:        100 * units.Microsecond,
		PauseThreshOff:    baseBDP,
		PauseThreshOn:     baseBDP / 2,
	}
}

// IdealConfig returns the strawman binding (per-packet credit,
// m·BDP window, per-dst PAUSE) used for the paper's "ideal" curves.
func IdealConfig(baseBDP units.ByteSize) Config {
	c := DefaultConfig(baseBDP)
	c.Mode = Ideal
	c.PerDstPause = true
	return c
}
