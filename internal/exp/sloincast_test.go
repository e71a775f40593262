package exp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"floodgate/internal/app"
	"floodgate/internal/units"
)

// TestSLOIncastShardDeterminism extends the bit-identity guarantee to
// the closed-loop application plane: the sloincast tables — deadline
// timers, jittered retries, hedges, and breaker decisions riding on
// the sharded engine — must render byte-identical for every
// combination of shards ∈ {1, 2, 4} and par ∈ {1, 4}. The reference is
// the fully serial unsharded run, recorded in testdata/identity.golden.
func TestSLOIncastShardDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	checkShardParMatrix(t, "sloincast")
}

// TestSLOIncastDifferentiates is the experiment's acceptance gate at
// the scale the README quotes: under the PFC storm with a tight
// deadline, DCQCN must time out and retry (amplification above 1.00)
// while DCQCN+Floodgate resolves every request without a single
// deadline expiry. Runs the two tight fan-in-8 cells directly rather
// than the whole matrix.
func TestSLOIncastDifferentiates(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	o := Options{Scale: 0.25, Seed: 1, Parallelism: 1}.norm()
	mk := func(s Scheme) sloCell {
		return sloCell{"8", 8, "tight(1.5x)", 1.5, s,
			app.ExpBackoff{Base: o.stretch(25 * units.Microsecond)}}
	}
	dcqcn := Run(sloRun(o, mk(DCQCN(o))))
	fg := Run(sloRun(o, mk(WithFloodgate(o, DCQCN(o), baseBDPOf(o.leafSpine())))))

	if dcqcn.SLO.TimeoutRate == 0 {
		t.Fatal("DCQCN under the storm shows no deadline expiries; the cell is not stressed")
	}
	if dcqcn.SLO.Amplification <= 1.0 {
		t.Fatalf("DCQCN amplification = %.2f, want > 1 (retries into the storm)", dcqcn.SLO.Amplification)
	}
	if fg.SLO.TimeoutRate >= dcqcn.SLO.TimeoutRate {
		t.Fatalf("Floodgate timeout rate %.2f not below DCQCN %.2f",
			fg.SLO.TimeoutRate, dcqcn.SLO.TimeoutRate)
	}
	if fg.SLO.Completed != fg.SLO.Requests {
		t.Fatalf("Floodgate completed %d/%d requests", fg.SLO.Completed, fg.SLO.Requests)
	}
	retried := 0
	for _, r := range dcqcn.AppRecords {
		if r.Attempts > 1 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatal("no DCQCN request ever launched a retry attempt")
	}
}

// TestSLOIncastObsAppCounters holds the app plane's -obs counters to the
// run's own request records: one observed sloincast cell (DCQCN, fan-in
// 8, tight deadline, hedged: it times out, retries, hedges and sheds)
// must export final app.* counts equal to what its AppRecords count.
func TestSLOIncastObsAppCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	windowOverride = matrixWindow
	defer func() { windowOverride = 0 }()
	o := smokeOpts
	o.Obs.Dir = t.TempDir()
	o = o.norm()
	res := Run(sloRun(o, sloCell{"8", 8, "tight(1.5x)", 1.5, DCQCN(o),
		app.Hedged{ExpBackoff: app.ExpBackoff{Base: o.stretch(25 * units.Microsecond)}}}))
	want := map[string]int64{}
	for _, r := range res.AppRecords {
		if r.Attempts > 0 || r.Shed {
			want["app.requests"]++
		}
		if r.Shed {
			want["app.shed"]++
		}
		if r.Attempts > 1 {
			want["app.retries"] += int64(r.Attempts - 1 - r.Hedges)
		}
		want["app.timeouts"] += int64(r.Timeouts)
		want["app.hedges"] += int64(r.Hedges)
	}
	files, err := filepath.Glob(filepath.Join(o.Obs.Dir, "adhoc", "*.metrics.ndjson"))
	if err != nil || len(files) != 1 {
		t.Fatalf("an observed run wrote %d metrics files (err %v), want 1", len(files), err)
	}
	for _, name := range sortedKeys(want) {
		if want[name] == 0 {
			t.Errorf("the cell counts no %s; it no longer exercises the counter", name)
		}
		if got := finalValue(t, files[0], name); got != want[name] {
			t.Errorf("%s reads %d, the run's records count %d", name, got, want[name])
		}
	}
}

// finalValue returns the end-of-run value of the named instrument in
// an -obs metrics NDJSON file.
func finalValue(t *testing.T, path, name string) int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		var m struct {
			Type, Name string
			Value      int64
		}
		if json.Unmarshal([]byte(line), &m) == nil && m.Type == "final" && m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("%s has no final line for %s", path, name)
	return 0
}

// TestSLOIncastSmoke runs the full experiment at smoke scale and
// checks the tables parse: both tables render, every row has the full
// column set, and the scorecard columns are well-formed.
func TestSLOIncastSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	windowOverride = fullIncastMixDuration / 8
	defer func() { windowOverride = 0 }()
	e, _ := Lookup("sloincast")
	tabs := e.Run(smokeOpts)
	if len(tabs) != 2 {
		t.Fatalf("got %d tables, want 2", len(tabs))
	}
	for _, tab := range tabs {
		if len(tab.Rows) == 0 {
			t.Fatalf("table %q has no rows", tab.Title)
		}
		for _, row := range tab.Rows {
			if len(row) != len(sloHeader) {
				t.Fatalf("table %q row has %d columns, want %d: %v", tab.Title, len(row), len(sloHeader), row)
			}
			if !strings.Contains(row[4], "/") {
				t.Fatalf("ok column %q is not completed/requests", row[4])
			}
			if !strings.HasSuffix(row[8], "%") || !strings.HasSuffix(row[9], "x") {
				t.Fatalf("timeout/amp columns malformed: %q %q", row[8], row[9])
			}
		}
	}
}
