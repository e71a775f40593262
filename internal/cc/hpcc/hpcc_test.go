package hpcc

import (
	"testing"

	"floodgate/internal/cc"
	"floodgate/internal/packet"
	"floodgate/internal/units"
)

func env() cc.Env {
	rtt := units.Duration(51) * units.Microsecond / 10
	rate := 100 * units.Gbps
	return cc.Env{LinkRate: rate, BaseRTT: rtt, BDP: units.BDP(rate, rtt)}
}

func ackWith(hops []packet.IntHop) *packet.Packet {
	p := packet.NewCtrl(1, packet.Ack, 1, 0, 1)
	p.Int = hops
	return p
}

func TestMaxUtilisationPicksWorstHop(t *testing.T) {
	s := Default()(env()).(*state)
	prev := []packet.IntHop{
		{TxBytes: 0, QLen: 0, TS: 0, LinkRate: 100 * units.Gbps},
		{TxBytes: 0, QLen: 200 * units.KB, TS: 0, LinkRate: 100 * units.Gbps},
	}
	s.OnAck(10, ackWith(prev), 0)
	cur := []packet.IntHop{
		{TxBytes: 10 * units.KB, QLen: 0, TS: units.Time(10 * units.Microsecond), LinkRate: 100 * units.Gbps},
		{TxBytes: 125 * units.KB, QLen: 200 * units.KB, TS: units.Time(10 * units.Microsecond), LinkRate: 100 * units.Gbps},
	}
	u := s.maxUtilisation(cur)
	// Hop 2 is saturated (125KB/10us = full rate) plus deep queue: U > 1.
	if u <= 1 {
		t.Fatalf("max utilisation = %v, want > 1 from the congested hop", u)
	}
}

func TestPathChangeResetsReference(t *testing.T) {
	s := Default()(env())
	one := []packet.IntHop{{TxBytes: 1, QLen: 0, TS: 1, LinkRate: units.Gbps}}
	two := []packet.IntHop{
		{TxBytes: 1, QLen: 0, TS: 1, LinkRate: units.Gbps},
		{TxBytes: 1, QLen: 0, TS: 1, LinkRate: units.Gbps},
	}
	s.OnAck(10, ackWith(one), 0)
	w0 := s.Window()
	// Hop count changed (rerouted): must re-prime, not compute garbage.
	s.OnAck(20, ackWith(two), 0)
	if s.Window() != w0 {
		t.Fatal("window moved on a path-change reference ack")
	}
}

func TestNoIntNoReaction(t *testing.T) {
	s := Default()(env())
	w0 := s.Window()
	s.OnAck(10, packet.NewCtrl(1, packet.Ack, 1, 0, 1), 0)
	if s.Window() != w0 {
		t.Fatal("ACK without INT changed the window")
	}
}

func TestRatePacesWindowOverRTT(t *testing.T) {
	s := Default()(env())
	// W = BDP means pacing at exactly line rate (capped).
	if s.Rate() != 100*units.Gbps {
		t.Fatalf("rate = %v, want line rate at W = BDP", s.Rate())
	}
}
