package device

import (
	"math/bits"

	"floodgate/internal/packet"
)

// livePageLen is the live table's page length in FlowIDs. A long flow
// pins its page, so a short page wastes fewer slots: on
// memcached_churn_dcqcn, 64-ID pages hold 1.0 MB at peak where 256-ID
// pages held 1.7 MB. It is also the width of a page's ownership mask.
const livePageLen = 64

// livePage holds the slots of the flows one shard sends among
// livePageLen consecutive FlowIDs: one slot per bit of owned, in FlowID
// order, so each of k shards pays about livePageLen/k slots a page,
// not livePageLen. owned and slots' length are set when the page is minted
// and stay fixed while it is held, so a receiver on another shard reads
// them without a lock (DESIGN.md §10).
type livePage struct {
	owned uint64 // bit j: FlowID base+j is this shard's to send
	used  int    // occupied slots: flows minted and not yet released
	slots []*Flow
}

// liveTable maps a FlowID to its flow's object from mint to release,
// for the flows one shard's hosts send (DESIGN.md §3, §10). It is paged
// so that it covers only the FlowIDs in flight: the injector mints a
// page at its first flow, and the page goes back to the free list once
// every flow in it has been released and the injector has moved past it
// (mints no more into it). Held flows are never released, so their
// pages stay. The directory has one word per page of FlowIDs and is
// sized once at SealFlows on a Cluster, so no shard ever moves it.
type liveTable struct {
	dir    []*livePage // FlowID / livePageLen -> page; nil where none is held
	free   []*livePage // recycled pages, every slot up to capacity nil
	cursor int         // the page the injector mints into; every page before it is passed
	// owned returns the ownership mask of page i; nil means every FlowID
	// is this table's (a network that owns the whole topology).
	owned func(i int) uint64
}

// slot returns id's slot, nil if its page is not held or another shard
// sends id.
func (t *liveTable) slot(id packet.FlowID) **Flow {
	i := int(id / livePageLen)
	if i >= len(t.dir) || t.dir[i] == nil {
		return nil
	}
	pg, bit := t.dir[i], uint64(1)<<(id%livePageLen)
	if pg.owned&bit == 0 {
		return nil
	}
	return &pg.slots[bits.OnesCount64(pg.owned&(bit-1))]
}

// get returns the object in id's slot, nil if none.
func (t *liveTable) get(id packet.FlowID) *Flow {
	if s := t.slot(id); s != nil {
		return *s
	}
	return nil
}

// put places f, one of this table's flows, in its slot, minting the
// slot's page from the free list or anew if it is not held.
func (t *liveTable) put(f *Flow) {
	i := int(f.ID / livePageLen)
	for i >= len(t.dir) { // a stand-alone network's table grows with AddFlow
		t.dir = append(t.dir, nil)
	}
	pg := t.dir[i]
	if pg == nil {
		pg = t.mint(i)
		t.dir[i] = pg
	}
	*t.slot(f.ID) = f
	pg.used++
}

// mint returns a page for page index i with its mask and slots set.
func (t *liveTable) mint(i int) *livePage {
	var pg *livePage
	if m := len(t.free); m > 0 {
		pg = t.free[m-1]
		t.free[m-1] = nil
		t.free = t.free[:m-1]
	} else {
		pg = new(livePage)
	}
	pg.owned = ^uint64(0)
	if t.owned != nil {
		pg.owned = t.owned(i)
	}
	if k := bits.OnesCount64(pg.owned); k <= cap(pg.slots) {
		pg.slots = pg.slots[:k]
	} else {
		pg.slots = make([]*Flow, k)
	}
	return pg
}

// remove empties a released flow's slot and recycles its page if that
// was the page's last flow and the injector is past it.
func (t *liveTable) remove(id packet.FlowID) {
	i := int(id / livePageLen)
	pg := t.dir[i]
	*t.slot(id) = nil
	if pg.used--; pg.used == 0 && i < t.cursor {
		t.recycle(i)
	}
}

// advance moves the injector's cursor to page i (i >= cursor), recycling
// the page it leaves if no flow in it is still live.
func (t *liveTable) advance(i int) {
	if i == t.cursor {
		return
	}
	if old := t.cursor; old < len(t.dir) && t.dir[old] != nil && t.dir[old].used == 0 {
		t.recycle(old)
	}
	t.cursor = i
}

// recycle returns page i, whose flows are all released, to the free list.
func (t *liveTable) recycle(i int) {
	pg := t.dir[i]
	assertPageEmpty(pg, packet.FlowID(i*livePageLen))
	t.dir[i] = nil
	t.free = append(t.free, pg)
}
