package exp

import "testing"

// TestPaperShapes checks every claim (claims.go) on the tables the smoke
// pass renders; it adds no simulation of its own when
// TestSmokeAllExperiments ran first. Byte-identity guards a refactor;
// this guards a change that is allowed to move numbers from bending the
// reproduction. Every failure names the claim and the cell.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke is not short")
	}
	for _, c := range claims {
		v := c.check(smokeRun(t, c.id), nil)
		if v.err != nil {
			t.Errorf("%s: %s: %v", c.id, c.sentence, v.err)
		}
		for _, x := range v.fails {
			t.Errorf("%s: %s: %s = %.4g, want %s %g", c.id, c.sentence, x.name, x.v, c.op, c.bound)
		}
	}
}
