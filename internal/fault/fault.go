// Package fault describes deterministic fault-injection plans for the
// simulator: scheduled link-down / link-up events, link flaps, switch
// restarts, and per-link Gilbert–Elliott burst loss. A Plan is pure
// data — it carries no state and touches no clock — so the same plan,
// applied to the same topology with the same seed, yields bit-identical
// runs at any parallelism. The device layer (device.Network) consumes a
// Plan at setup time, schedules its events on the sim engine, and keeps
// the runtime link/loss state the plan implies.
package fault

import (
	"fmt"
	"sort"

	"floodgate/internal/packet"
	"floodgate/internal/topo"
	"floodgate/internal/units"
)

// Kind discriminates fault events.
type Kind uint8

// Fault event kinds.
const (
	// LinkDown takes a bidirectional link out of service: frames that
	// finish serializing onto it are lost (both directions), and ECMP
	// excludes the dead ports from route choices for new packets.
	LinkDown Kind = iota
	// LinkUp restores a downed link and clears any PFC pause state the
	// outage stranded on its endpoints.
	LinkUp
	// SwitchRestart models a switch losing all soft state: queued
	// frames are dropped, flow-control state (Floodgate windows, VOQs,
	// pending credits, PSN channels) is reinitialized, and neighbors
	// are nudged so stranded per-link state re-synchronizes.
	SwitchRestart
)

func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case SwitchRestart:
		return "switch-restart"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Link names a bidirectional link by its endpoint node IDs. Orientation
// does not matter: {A, B} and {B, A} describe the same link.
type Link struct {
	A, B packet.NodeID
}

func (l Link) String() string { return fmt.Sprintf("%d<->%d", l.A, l.B) }

// Event is one scheduled fault. LinkDown/LinkUp use Link; SwitchRestart
// uses Node.
type Event struct {
	At   units.Time
	Kind Kind
	Link Link          // LinkDown / LinkUp
	Node packet.NodeID // SwitchRestart
}

// GilbertElliott parameterizes the classic two-state burst-loss chain:
// a Good state with loss probability LossGood and a Bad state with
// LossBad, with per-frame transition probabilities PGoodBad (Good→Bad)
// and PBadGood (Bad→Good). The chain advances once per eligible frame
// transmitted on the link, drawing from a per-link deterministic PRNG.
type GilbertElliott struct {
	PGoodBad float64
	PBadGood float64
	LossGood float64
	LossBad  float64
}

// BurstWithMeanLoss returns a Gilbert–Elliott chain whose stationary
// loss rate equals mean, concentrated in bursts: the Bad state drops
// half of all frames and lasts four frames on average, while the Good
// state is lossless. mean must lie in (0, 0.5).
func BurstWithMeanLoss(mean float64) *GilbertElliott {
	if mean <= 0 || mean >= 0.5 {
		panic(fmt.Sprintf("fault: burst mean loss %v outside (0, 0.5)", mean))
	}
	const (
		lossBad  = 0.5
		pBadGood = 0.25
	)
	// Stationary Bad-state probability π solves π·LossBad = mean;
	// PGoodBad then follows from the balance equation
	// (1−π)·PGoodBad = π·PBadGood.
	pi := mean / lossBad
	return &GilbertElliott{
		PGoodBad: pBadGood * pi / (1 - pi),
		PBadGood: pBadGood,
		LossGood: 0,
		LossBad:  lossBad,
	}
}

// Plan is a complete fault schedule for one run: zero or more timed
// events plus an optional burst-loss chain applied to switch-to-switch
// links. An empty Plan is valid and injects nothing (but still arms the
// stall watchdog in the experiment layer).
type Plan struct {
	Events []Event
	// Burst, when non-nil, applies Gilbert–Elliott loss to every
	// switch-to-switch link. Host links are never burst-lossy (the
	// paper's loss model, like Fig. 12's, lives in the fabric).
	Burst *GilbertElliott
}

// Flap returns the event sequence for a link that goes down at start,
// stays down for downFor, and repeats every period, count times.
func Flap(l Link, start units.Time, downFor, period units.Duration, count int) []Event {
	evs := make([]Event, 0, 2*count)
	for i := 0; i < count; i++ {
		at := start.Add(units.Duration(i) * period)
		evs = append(evs,
			Event{At: at, Kind: LinkDown, Link: l},
			Event{At: at.Add(downFor), Kind: LinkUp, Link: l},
		)
	}
	return evs
}

// Validate checks the plan for self-consistency: non-negative event
// times, distinct link endpoints, sensible flap pairing is NOT required
// (down-without-up models a permanent failure), and burst probabilities
// in [0, 1].
func (p *Plan) Validate() error {
	for i, ev := range p.Events {
		if ev.At < 0 {
			return fmt.Errorf("fault: event %d (%s) at negative time %v", i, ev.Kind, ev.At)
		}
		switch ev.Kind {
		case LinkDown, LinkUp:
			if ev.Link.A == ev.Link.B {
				return fmt.Errorf("fault: event %d (%s) names degenerate link %v", i, ev.Kind, ev.Link)
			}
		case SwitchRestart:
		default:
			return fmt.Errorf("fault: event %d has unknown kind %d", i, uint8(ev.Kind))
		}
	}
	if g := p.Burst; g != nil {
		for _, pr := range [...]struct {
			name string
			v    float64
		}{
			{"PGoodBad", g.PGoodBad}, {"PBadGood", g.PBadGood},
			{"LossGood", g.LossGood}, {"LossBad", g.LossBad},
		} {
			if !(pr.v >= 0 && pr.v <= 1) { // NaN too
				return fmt.Errorf("fault: burst %s = %v outside [0, 1]", pr.name, pr.v)
			}
		}
	}
	return nil
}

// Resolve checks the plan against the fabric it will run on: every link
// event names two adjacent nodes, every restart a switch. The error
// names the first event that does not resolve.
// device.Network.InstallFaults and exp's RunConfig.Validate both call it,
// so a plan a run accepts is one the device layer can install.
func (p *Plan) Resolve(t *topo.Topology) error {
	for i, ev := range p.Events {
		switch ev.Kind {
		case LinkDown, LinkUp:
			if !linked(t, ev.Link) {
				return fmt.Errorf("fault: event %d (%s) names link %v, which the topology lacks", i, ev.Kind, ev.Link)
			}
		case SwitchRestart:
			if !inRange(t, ev.Node) || t.Node(ev.Node).Kind != topo.SwitchNode {
				return fmt.Errorf("fault: event %d (%s) names node %d, which is not a switch of the topology", i, ev.Kind, ev.Node)
			}
		}
	}
	return nil
}

// inRange reports whether id names a node of t.
func inRange(t *topo.Topology, id packet.NodeID) bool { return id >= 0 && int(id) < len(t.Nodes) }

// linked reports whether t has the link l: both ends are nodes, and
// each has a port toward the other.
func linked(t *topo.Topology, l Link) bool {
	return inRange(t, l.A) && inRange(t, l.B) && t.PortTo(l.A, l.B) >= 0 && t.PortTo(l.B, l.A) >= 0
}

// SortedEvents returns the events ordered by time (stable, so events at
// the same instant keep their declaration order). The schedule in the
// plan itself is left untouched.
func (p *Plan) SortedEvents() []Event {
	evs := append([]Event(nil), p.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

// BurstApplies reports whether the plan's burst chain covers the link
// (a, b) of t: with Burst set it covers every switch-to-switch link,
// and never a host link.
func (p *Plan) BurstApplies(t *topo.Topology, a, b packet.NodeID) bool {
	return p.Burst != nil && t.Node(a).Kind == topo.SwitchNode && t.Node(b).Kind == topo.SwitchNode
}
