package packet

import (
	"testing"
	"unsafe"

	"floodgate/internal/units"
)

func TestNewData(t *testing.T) {
	p := NewData(1, 2, 3, 4, 100, 1452, true)
	if p.Kind != Data || p.Size != 1500 || p.Seq != 100 || !p.Last {
		t.Fatalf("bad data packet: %+v", p)
	}
	if p.Kind != Data {
		t.Fatal("data is not control")
	}
}

func TestNewCtrl(t *testing.T) {
	p := NewCtrl(1, Credit, 0, 3, 4)
	if p.Size != CtrlSize || p.Kind == Data {
		t.Fatalf("bad ctrl packet: %+v", p)
	}
}

func TestTrim(t *testing.T) {
	p := NewData(1, 2, 3, 4, 0, 1452, false)
	p.Trim()
	if !p.Trimmed || p.Size != HeaderSize || p.Kind != Data {
		t.Fatalf("bad trimmed packet: %+v", p)
	}
}

func TestAddIntGrowsWire(t *testing.T) {
	p := NewData(1, 2, 3, 4, 0, 100, false)
	base := p.Size
	p.AddInt(IntHop{TxBytes: 5, QLen: 10, TS: 1, LinkRate: units.Gbps})
	p.AddInt(IntHop{TxBytes: 6, QLen: 11, TS: 2, LinkRate: units.Gbps})
	if p.Size != base+2*IntHopSize || len(p.Int) != 2 {
		t.Fatalf("INT accounting wrong: size=%v hops=%d", p.Size, len(p.Int))
	}
}

func TestResetKeepBuffers(t *testing.T) {
	p := NewData(9, 2, 3, 4, 0, 100, true)
	p.AddInt(IntHop{TxBytes: 5})
	p.Credits = append(p.Credits, CreditEntry{Dst: 7, Bytes: 100})
	p.ECN = true
	p.ViaVOQ = true
	intCap := cap(p.Int)
	p.ResetKeepBuffers()
	if p.ID != 0 || p.ECN || p.ViaVOQ || p.Last || p.Size != 0 {
		t.Fatalf("reset incomplete: %+v", p)
	}
	if len(p.Int) != 0 || len(p.Credits) != 0 {
		t.Fatal("slices not truncated")
	}
	if cap(p.Int) != intCap {
		t.Fatal("Int capacity not retained")
	}
}

func TestKindStrings(t *testing.T) {
	if Data.String() != "DATA" || Credit.String() != "CREDIT" || Pull.String() != "PULL" {
		t.Fatal("kind names wrong")
	}
	if Kind(200).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestCategoryStrings(t *testing.T) {
	if CatIncast.String() != "incast" || CatVictimPFC.String() != "victim-of-PFC" {
		t.Fatal("category names wrong")
	}
}

func TestPacketString(t *testing.T) {
	p := NewData(1, 2, 3, 4, 0, 100, false)
	if p.String() == "" {
		t.Fatal("empty String()")
	}
}

// TestPacketSize pins the pooled packet at 168 bytes: words first, then
// 32-bit fields, then bytes, and no trailing zero-size field, leave it
// no padding.
func TestPacketSize(t *testing.T) {
	if unsafe.Sizeof(debugState{}) != 0 {
		t.Skip("the simdebug pool stamp adds its own bytes")
	}
	if sz := unsafe.Sizeof(Packet{}); sz > 168 {
		t.Fatalf("Packet is %d bytes, want <= 168", sz)
	}
}
