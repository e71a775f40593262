package workload

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/units"
)

// TestSpecFileRoundTrip: WriteSpecs → SpecReader must reproduce a
// generated workload spec-for-spec, streaming without materializing.
func TestSpecFileRoundTrip(t *testing.T) {
	r := sim.NewRand(9)
	var specs []FlowSpec
	for i := 0; i < 200; i++ {
		specs = append(specs, FlowSpec{
			Src:   packet.NodeID(i % 7),
			Dst:   packet.NodeID(40 + i%3),
			Size:  units.ByteSize(1000 + r.Int63n(50000)),
			Start: units.Time(int64(i) * 500_000),
			Cat:   packet.Category(i % 3),
		})
	}
	var buf bytes.Buffer
	if err := WriteSpecs(&buf, specs); err != nil {
		t.Fatalf("WriteSpecs: %v", err)
	}
	sr := NewSpecReader(&buf)
	for i, want := range specs {
		got, ok, err := sr.Next()
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if !ok {
			t.Fatalf("stream ended at spec %d of %d", i, len(specs))
		}
		if got != want {
			t.Fatalf("spec %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, ok, err := sr.Next(); ok || err != nil {
		t.Fatalf("expected clean end of stream, got ok=%v err=%v", ok, err)
	}
}

// TestSpecReaderSkipsCommentsAndBlanks: a file with a header comment
// and blank separators yields only the spec lines.
func TestSpecReaderSkipsCommentsAndBlanks(t *testing.T) {
	in := "# flow file header\n\n" +
		`{"src":1,"dst":2,"size":1500,"start_ps":0,"cat":0}` + "\n\n" +
		"# trailing comment\n" +
		`{"src":3,"dst":4,"size":3000,"start_ps":1000,"cat":1}` + "\n"
	sr := NewSpecReader(strings.NewReader(in))
	var got []FlowSpec
	for {
		s, ok, err := sr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, s)
	}
	if len(got) != 2 {
		t.Fatalf("got %d specs, want 2", len(got))
	}
	if got[1].Src != 3 || got[1].Start != 1000 || got[1].Cat != 1 {
		t.Fatalf("second spec mangled: %+v", got[1])
	}
}

// TestSpecReaderRejectsUnsorted: a start_ps regression must fail at
// the offending line number.
func TestSpecReaderRejectsUnsorted(t *testing.T) {
	in := `{"src":1,"dst":2,"size":1500,"start_ps":2000,"cat":0}` + "\n" +
		`{"src":3,"dst":4,"size":1500,"start_ps":1000,"cat":0}` + "\n"
	sr := NewSpecReader(strings.NewReader(in))
	if _, _, err := sr.Next(); err != nil {
		t.Fatalf("first spec: %v", err)
	}
	_, _, err := sr.Next()
	if err == nil {
		t.Fatal("unsorted start_ps accepted")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error %q does not name the offending line", err)
	}
}

// TestSpecReaderRejectsBadInput: malformed JSON and every field that
// breaks a registration precondition fail at the offending line, naming
// the field — not as a panic mid-run.
func TestSpecReaderRejectsBadInput(t *testing.T) {
	const good = `{"src":1,"dst":2,"size":1500,"start_ps":0,"cat":0}` + "\n"
	for _, tc := range []struct{ name, line, want string }{
		{"garbage", "not json", "line 2: invalid character"},
		{"zerosize", `{"src":1,"dst":2,"size":0,"start_ps":0,"cat":0}`, "line 2: size 0"},
		{"negsize", `{"src":1,"dst":2,"size":-5,"start_ps":0,"cat":0}`, "line 2: size -5"},
		{"size 2^48", `{"src":1,"dst":2,"size":281474976710656,"start_ps":0,"cat":0}`, "line 2: size 281474976710656"},
		{"cat 9", `{"src":1,"dst":2,"size":1500,"start_ps":0,"cat":9}`, "line 2: cat 9"},
		{"cat -1", `{"src":1,"dst":2,"size":1500,"start_ps":0,"cat":-1}`, "line 2: cat -1"},
		{"src == dst", `{"src":2,"dst":2,"size":1500,"start_ps":0,"cat":0}`, "line 2: dst 2 equals src"},
		{"negative start", `{"src":1,"dst":2,"size":1500,"start_ps":-5,"cat":0}`, "line 2: start_ps -5"},
		{"negative src", `{"src":-1,"dst":2,"size":1500,"start_ps":0,"cat":0}`, "line 2: src -1"},
		{"dst beyond int32", `{"src":1,"dst":4294967298,"size":1500,"start_ps":0,"cat":0}`, "line 2: dst 4294967298"},
	} {
		sr := NewSpecReader(strings.NewReader(good + tc.line + "\n"))
		if _, _, err := sr.Next(); err != nil {
			t.Fatalf("%s: first line: %v", tc.name, err)
		}
		_, _, err := sr.Next()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want it to contain %q", tc.name, err, tc.want)
		}
	}
}

// FuzzSpecReader: on arbitrary bytes Next never panics, every spec it
// returns meets flow registration's preconditions (the ones a flow file
// can break without knowing the fabric), and every error names its
// line. The seeds are the four lines that once crashed a replay mid-run.
func FuzzSpecReader(f *testing.F) {
	for _, seed := range []string{
		`{"src":3,"dst":71,"size":64000,"start_ps":0,"cat":9}`,
		`{"src":3,"dst":71,"size":64000,"start_ps":0,"cat":-1}`,
		`{"src":3,"dst":3,"size":64000,"start_ps":0,"cat":1}`,
		`{"src":3,"dst":71,"size":64000,"start_ps":-5,"cat":1}`,
		"# header\n" + `{"src":3,"dst":71,"size":64000,"start_ps":0,"cat":1}` + "\n\n" +
			`{"src":4,"dst":70,"size":281474976710655,"start_ps":7,"cat":2}`,
	} {
		f.Add([]byte(seed))
	}
	lineErr := regexp.MustCompile(`^workload: flow file line [1-9][0-9]*: `)
	f.Fuzz(func(t *testing.T, data []byte) {
		sr := NewSpecReader(bytes.NewReader(data))
		var last units.Time
		for {
			s, ok, err := sr.Next()
			if err != nil {
				if !lineErr.MatchString(err.Error()) {
					t.Fatalf("error does not name its line: %v", err)
				}
				return
			}
			if !ok {
				return
			}
			if s.Size <= 0 || s.Size >= 1<<48 || s.Cat >= packet.NumCategories || s.Start < last ||
				s.Src == s.Dst || s.Src < 0 || s.Dst < 0 {
				t.Fatalf("spec %+v (previous start %d) breaks a registration precondition", s, last)
			}
			last = s.Start
		}
	})
}
