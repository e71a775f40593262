//go:build simdebug

package device

import (
	"fmt"
	"strings"
	"testing"

	"floodgate/internal/cc/hpcc"
	"floodgate/internal/packet"
	"floodgate/internal/units"
)

// TestBufferLawFires replays the old INT accounting on one frame — the
// 8 B record the egress added charged to the port and to the release
// txDone owes, although admission never charged it — and checks that
// the law panics naming the switch and the 8 B deficit, while the
// healthy run up to that frame passes.
func TestBufferLawFires(t *testing.T) {
	cfg := smallCfg()
	cfg.CC = hpcc.Default()
	cfg.INT = true
	n := New(cfg)
	n.AddFlow(cfg.Topo.Hosts[0], cfg.Topo.Hosts[5], 10*units.KB, 0, packet.CatVictimPFC)
	var broken *Switch
	for broken == nil {
		at, ok := n.Eng.NextAt()
		if !ok {
			t.Fatal("run drained before any switch serialised a data frame")
		}
		n.Run(at)
		for _, s := range n.Switches {
			for i := 0; s != nil && broken == nil && i < len(s.ports); i++ {
				if o := s.ports[i]; o != nil && o.busy && o.pendCharged {
					o.pendSize += packet.IntHopSize
					s.notePort(i, -packet.IntHopSize)
					broken = s
				}
			}
		}
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, fmt.Sprintf("buffer law broken at %v on switch %d ", n.Eng.Now(), broken.node.ID)) ||
			!strings.Contains(msg, ": -8 vs 0") {
			t.Fatalf("panic %q, want the buffer law naming switch %d and -8 vs 0", msg, broken.node.ID)
		}
	}()
	n.Run(units.Time(5 * units.Millisecond))
}
