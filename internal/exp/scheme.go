// Package exp is the benchmark harness: one runner per table and
// figure in the paper's evaluation (§5.2, §6, appendices), each
// assembling topology + workload + scheme, running the simulator, and
// reducing the collector into the same rows/series the paper reports.
//
// Schemes are constructed against an Options value because the
// slow-motion scale model stretches every protocol time constant
// (DCQCN timers, CNP pacing) by 1/Scale; Floodgate's credit timer is
// the deliberate exception (see WithFloodgate).
package exp

import (
	"fmt"

	"floodgate/internal/bfc"
	"floodgate/internal/cc"
	"floodgate/internal/cc/dcqcn"
	"floodgate/internal/cc/dctcp"
	"floodgate/internal/cc/hpcc"
	"floodgate/internal/cc/timely"
	"floodgate/internal/core"
	"floodgate/internal/device"
	"floodgate/internal/pfctag"
	"floodgate/internal/units"
)

// Scheme is a complete transport/flow-control configuration.
type Scheme struct {
	Name string

	CC  cc.Factory
	INT bool // HPCC telemetry
	ECN bool // DCQCN marking

	FC            device.FCFactory
	QueuesPerPort int
	NDP           bool

	// cc and fc are the config values CC and FC were built from, or the
	// factory's name when it takes none (fixedWindow for
	// cc.NewFixedWindow, "dctcp.Default" and the like for the
	// controllers with a fixed binding). runKey hashes them in place of
	// the factories, and reduced refuses a Scheme whose CC or FC has no
	// config beside it, so code here that sets a factory sets its
	// config too. A Scheme built outside the package never reaches the
	// memo; its -obs label and RunError tell it apart by Name.
	cc, fc any
}

// fixedWindow stands for the config of cc.NewFixedWindow.
const fixedWindow = "fixed-window"

// dcqcnConfigScaled returns the DCQCN binding with timers stretched to
// the scale's slow-motion clock. DCQCN is a library entry point (the
// facade, bench/), so its Options are normalised here.
func dcqcnConfigScaled(o Options) dcqcn.Config {
	o = o.norm()
	cfg := dcqcn.DefaultConfig()
	cfg.AlphaInterval = o.stretch(cfg.AlphaInterval)
	cfg.RateIncInterval = o.stretch(cfg.RateIncInterval)
	cfg.DecreaseMinGap = o.stretch(cfg.DecreaseMinGap)
	cfg.RateAI = o.rate(cfg.RateAI)
	cfg.RateHAI = o.rate(cfg.RateHAI)
	return cfg
}

// DCQCN returns plain DCQCN (ECN marking, CNP reaction) with timers
// stretched to the scale's slow-motion clock.
func DCQCN(o Options) Scheme {
	cfg := dcqcnConfigScaled(o)
	return Scheme{Name: "DCQCN", CC: dcqcn.New(cfg), cc: cfg, ECN: true}
}

// DCTCP returns window-based DCTCP (ECN-fraction reaction, §8's third
// ECN-signal congestion control).
func DCTCP(o Options) Scheme {
	return Scheme{Name: "DCTCP", CC: dctcp.Default(), cc: "dctcp.Default", ECN: true}
}

// TIMELY returns plain TIMELY; its thresholds derive from the base
// RTT, which the slow-motion model stretches automatically.
func TIMELY(o Options) Scheme {
	return Scheme{Name: "TIMELY", CC: timely.Default(), cc: "timely.Default"}
}

// HPCC returns plain HPCC (INT driven); its reference window derives
// from base RTT × line rate, which is scale-invariant.
func HPCC(o Options) Scheme {
	return Scheme{Name: "HPCC", CC: hpcc.Default(), cc: "hpcc.Default", INT: true}
}

// NDP returns the receiver-driven NDP baseline (cut-payload trimming).
func NDP(o Options) Scheme {
	return Scheme{Name: "NDP", CC: cc.NewFixedWindow(), cc: fixedWindow, NDP: true}
}

// WithFloodgate layers practical Floodgate over a scheme: the §6
// binding core.DefaultConfig (T = 10 µs, thre_credit = 10 base BDP, 100
// VOQs). The credit timer deliberately stays at its wall-clock value
// across scales, so o goes unused: the window's C_out·T term then
// shrinks with the scaled link rate, preserving the paper's ratio
// between per-dst windows and a rack's incast share (the engagement
// condition of the mechanism). The relative credit-packet overhead is
// higher at small scale as a result; EXPERIMENTS.md notes this where
// it shows.
func WithFloodgate(o Options, s Scheme, baseBDP units.ByteSize) Scheme {
	return WithFloodgateCfg(s, core.DefaultConfig(baseBDP), "+Floodgate")
}

// WithIdeal layers strawman Floodgate over a scheme (core.IdealConfig:
// per-packet credits, m·BDP windows, per-dst PAUSE).
func WithIdeal(o Options, s Scheme, baseBDP units.ByteSize) Scheme {
	return WithFloodgateCfg(s, core.IdealConfig(baseBDP), "+ideal")
}

// WithFloodgateCfg layers an explicit Floodgate config (sweeps).
func WithFloodgateCfg(s Scheme, cfg core.Config, suffix string) Scheme {
	s.Name += suffix
	s.FC, s.fc = core.New(cfg), cfg
	return s
}

// BFC returns the BFC baseline over `queues` physical queues per port
// (32/128), or per-flow queues when ideal.
func BFC(queues int, ideal bool, pauseThresh units.ByteSize) Scheme {
	name := "BFC-ideal"
	qpp := 1024
	if !ideal {
		name = fmt.Sprintf("BFC-%dQ", queues)
		qpp = queues
	}
	cfg := bfc.Config{NumQueues: queues, Ideal: ideal, PauseThresh: pauseThresh}
	return Scheme{Name: name, CC: cc.NewFixedWindow(), cc: fixedWindow, FC: bfc.New(cfg), fc: cfg, QueuesPerPort: qpp}
}

// WithPFCTag layers the PFC w/ tag derivative over a scheme
// (Appendix B).
func WithPFCTag(s Scheme, oneHopBDP units.ByteSize) Scheme {
	s.Name += "+PFC w/ tag"
	cfg := pfctag.DefaultConfig(oneHopBDP)
	s.FC, s.fc = pfctag.New(cfg), cfg
	return s
}
