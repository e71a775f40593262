package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"floodgate/internal/packet"
	"floodgate/internal/units"
)

// Flow files are newline-delimited JSON, one spec per line:
//
//	{"src":3,"dst":40,"size":52500,"start_ps":1200000000,"cat":1}
//
// All values are integers (node ids, bytes, picoseconds, category
// ordinal), so a file round-trips bit-exactly. Lines must be sorted by
// non-decreasing start_ps — the same contract Cluster.AddFlow enforces
// for generated workloads. Blank lines and lines starting with '#' are
// skipped, so files can carry a header comment.
// Each line must also meet flow registration's other preconditions
// (specLine.check); which ids are hosts depends on the fabric, so the
// replay checks that.

// maxSize bounds a flow's size: registration packs it into 48 bits.
const maxSize = 1 << 48

// SpecSource streams flow specs one at a time; implementations must
// never require the full list in memory. Next returns ok=false at the
// end of the stream.
type SpecSource interface {
	Next() (s FlowSpec, ok bool, err error)
}

// specLine is the NDJSON wire form of one FlowSpec.
type specLine struct {
	Src   int64 `json:"src"`
	Dst   int64 `json:"dst"`
	Size  int64 `json:"size"`
	Start int64 `json:"start_ps"`
	Cat   int   `json:"cat"`
}

// SpecReader streams FlowSpecs from NDJSON. It validates each line and
// monotone starts as it goes, so a bad or mis-sorted file fails at the
// offending line, not deep inside the simulator.
type SpecReader struct {
	sc        *bufio.Scanner
	closer    io.Closer
	line      int
	lastStart units.Time
	started   bool
}

// NewSpecReader streams from r (which is not closed by the reader).
func NewSpecReader(r io.Reader) *SpecReader {
	sc := bufio.NewScanner(r)
	// Specs are short lines, but leave headroom for annotated files.
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	return &SpecReader{sc: sc}
}

// OpenSpecFile streams from an NDJSON file; Close releases it.
func OpenSpecFile(path string) (*SpecReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	sr := NewSpecReader(f)
	sr.closer = f
	return sr, nil
}

// Next implements SpecSource.
func (sr *SpecReader) Next() (FlowSpec, bool, error) {
	for sr.sc.Scan() {
		sr.line++
		b := sr.sc.Bytes()
		if len(b) == 0 || b[0] == '#' {
			continue
		}
		var l specLine
		err := json.Unmarshal(b, &l)
		if err == nil {
			err = l.check()
		}
		if err != nil {
			return FlowSpec{}, false, fmt.Errorf("workload: flow file line %d: %w", sr.line, err)
		}
		s := FlowSpec{
			Src:   packet.NodeID(l.Src),
			Dst:   packet.NodeID(l.Dst),
			Size:  units.ByteSize(l.Size),
			Start: units.Time(l.Start),
			Cat:   packet.Category(l.Cat),
		}
		if sr.started && s.Start < sr.lastStart {
			return FlowSpec{}, false, fmt.Errorf("workload: flow file line %d: start %d before previous %d (sort by start_ps)",
				sr.line, l.Start, int64(sr.lastStart))
		}
		sr.started, sr.lastStart = true, s.Start
		return s, true, nil
	}
	if err := sr.sc.Err(); err != nil {
		return FlowSpec{}, false, fmt.Errorf("workload: flow file line %d: %w", sr.line+1, err)
	}
	return FlowSpec{}, false, nil
}

// check reports the first field that breaks a registration precondition.
func (l *specLine) check() error {
	switch {
	case l.Src < 0 || l.Src > math.MaxInt32:
		return fmt.Errorf("src %d is not a node id", l.Src)
	case l.Dst < 0 || l.Dst > math.MaxInt32:
		return fmt.Errorf("dst %d is not a node id", l.Dst)
	case l.Src == l.Dst:
		return fmt.Errorf("dst %d equals src", l.Dst)
	case l.Size <= 0 || l.Size >= maxSize:
		return fmt.Errorf("size %d outside (0, 2^48)", l.Size)
	case l.Start < 0:
		return fmt.Errorf("start_ps %d is negative", l.Start)
	case l.Cat < 0 || l.Cat >= int(packet.NumCategories):
		return fmt.Errorf("cat %d is not a category (0..%d)", l.Cat, packet.NumCategories-1)
	}
	return nil
}

// Close releases the underlying file when the reader owns one.
func (sr *SpecReader) Close() error {
	if sr.closer == nil {
		return nil
	}
	return sr.closer.Close()
}

// WriteSpecs renders specs as NDJSON in the exact form Next parses —
// the round trip is byte-stable, so generated workloads can be frozen
// to files and replayed.
func WriteSpecs(w io.Writer, specs []FlowSpec) error {
	bw := bufio.NewWriter(w)
	for i := range specs {
		s := &specs[i]
		// Fixed field order by hand (not json.Marshal) so output bytes
		// are canonical.
		if _, err := fmt.Fprintf(bw, `{"src":%d,"dst":%d,"size":%d,"start_ps":%d,"cat":%d}`+"\n",
			int64(s.Src), int64(s.Dst), int64(s.Size), int64(s.Start), int(s.Cat)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SliceSource adapts an in-memory spec slice to SpecSource (tests and
// composition with generated workloads).
type SliceSource struct {
	Specs []FlowSpec
	idx   int
}

// Next implements SpecSource.
func (ss *SliceSource) Next() (FlowSpec, bool, error) {
	if ss.idx >= len(ss.Specs) {
		return FlowSpec{}, false, nil
	}
	s := ss.Specs[ss.idx]
	ss.idx++
	return s, true, nil
}
