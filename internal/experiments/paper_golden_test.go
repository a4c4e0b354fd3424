package experiments

import (
	"testing"
)

// paperArtifacts renders the paper's artifacts — Figure 2, Table 1,
// Table 2, Figure 3, the servers-per-site CDF and the emulation sweep — at
// the subsampled sizes of the determinism suite. Each is pinned byte for
// byte in testdata/paper_<name>.golden, so a change anywhere below the
// experiment drivers (scheduler, netem, tcpsim, browser, webgen) that
// moves a single page-load time fails tier-1 instead of drifting silently
// into the doc tables.
var paperArtifacts = map[string]func(parallel int) string{
	"fig2":   artifacts["fig2"],
	"table1": artifacts["table1"],
	"table2": artifacts["table2"],
	"fig3":   artifacts["fig3"],
	"sweep":  artifacts["sweep"],
	"servers": func(parallel int) string {
		return ServersPerSite(1, 500, parallel).String()
	},
}

// TestPaperArtifactsGolden compares every paper artifact against its
// pinned bytes and reports the first differing line. A deliberate
// behaviour change re-pins the golden and names the change in CHANGES.md.
func TestPaperArtifactsGolden(t *testing.T) {
	for _, name := range []string{"fig2", "table1", "table2", "fig3", "sweep", "servers"} {
		want := readGolden(t, "paper_"+name+".golden")
		got := paperArtifacts[name](2)
		if got == want {
			continue
		}
		line, w, g := firstDiffLine(want, got)
		t.Errorf("%s: artifact differs from testdata/paper_%s.golden at line %d:\n  golden: %q\n     got: %q",
			name, name, line, w, g)
	}
}
