package experiments

import (
	"strings"
	"testing"

	"repro/internal/browser"
	"repro/internal/shells"
	"repro/internal/sim"
)

func TestLoadBasic(t *testing.T) {
	r := Load(LoadSpec{
		Page:       corpusPages(1, 20)[0],
		DNSLatency: sim.Millisecond,
		Shells:     []shells.Shell{shells.NewDelayShell(20 * sim.Millisecond)},
	})
	if r.PLT <= 0 || r.Errors != 0 {
		t.Fatalf("load: PLT=%v errors=%d", r.PLT, r.Errors)
	}
}

func TestLoadDeterministicWithoutJitter(t *testing.T) {
	page := corpusPages(1, 20)[1]
	spec := LoadSpec{Page: page, DNSLatency: sim.Millisecond}
	if Load(spec).PLT != Load(spec).PLT {
		t.Fatal("jitter-free loads differ")
	}
}

func TestLoadScratchReuseIsInvisible(t *testing.T) {
	// A shared Scratch warms pools across loads but must never change
	// results: fresh-scratch, reused-scratch, and alternating-site loads
	// all agree with each other, resource for resource.
	pages := corpusPages(1, 20)
	specA := LoadSpec{Page: pages[3], DNSLatency: sim.Millisecond,
		Shells: []shells.Shell{shells.NewDelayShell(20 * sim.Millisecond)}}
	specB := LoadSpec{Page: pages[4], DNSLatency: sim.Millisecond}

	fresh := Load(specA)
	sc := NewScratch()
	specA.Scratch, specB.Scratch = sc, sc
	first := Load(specA)
	Load(specB) // interleave another site through the same scratch
	again := Load(specA)

	for _, r := range []struct {
		name string
		got  browser.Result
	}{{"first scratch load", first}, {"post-reuse load", again}} {
		if r.got.PLT != fresh.PLT || r.got.Resources != fresh.Resources ||
			r.got.Bytes != fresh.Bytes || r.got.Errors != fresh.Errors {
			t.Fatalf("%s diverged: PLT %v vs %v", r.name, r.got.PLT, fresh.PLT)
		}
		for i := range fresh.Timings {
			if r.got.Timings[i] != fresh.Timings[i] {
				t.Fatalf("%s: timing %d differs: %+v vs %+v",
					r.name, i, r.got.Timings[i], fresh.Timings[i])
			}
		}
	}
}

func TestLoadJitterVaries(t *testing.T) {
	page := corpusPages(1, 20)[2]
	rng := sim.NewRand(9)
	a := PLTms(LoadSpec{Page: page, DNSLatency: sim.Millisecond, CPUJitterSigma: 0.05, Rand: rng})
	b := PLTms(LoadSpec{Page: page, DNSLatency: sim.Millisecond, CPUJitterSigma: 0.05, Rand: rng})
	if a == b {
		t.Fatal("jittered loads identical")
	}
}

func TestFig2SmallShape(t *testing.T) {
	r := Fig2(Fig2Config{
		Sites: 25, Seed: 1,
		DelayForwarding: 30 * sim.Microsecond,
		LinkForwarding:  250 * sim.Microsecond,
	})
	// DelayShell 0ms overhead must be tiny but positive; LinkShell at
	// 1000 Mbit/s must cost more than DelayShell but stay small.
	if r.OverheadD <= 0 || r.OverheadD > 0.02 {
		t.Fatalf("DelayShell overhead %.3f%%, want (0, 2%%]", r.OverheadD*100)
	}
	if r.OverheadL <= r.OverheadD || r.OverheadL > 0.10 {
		t.Fatalf("LinkShell overhead %.3f%% vs delay %.3f%%", r.OverheadL*100, r.OverheadD*100)
	}
	if !strings.Contains(r.String(), "Figure 2") {
		t.Fatal("String() malformed")
	}
}

// TestFig2ArmsMeterEveryByte loads corpus sites under each Fig2 arm
// through the metering browser: every response must arrive and count its
// full body length.
func TestFig2ArmsMeterEveryByte(t *testing.T) {
	cfg := DefaultFig2()
	pages := corpusPages(5, 20)
	sites := materializeAll(pages)
	arms := fig2ArmShells(cfg)
	for _, arm := range fig2Arms {
		for si, page := range pages[:6] {
			r := Load(LoadSpec{
				Page: page, Site: sites[si](),
				DNSLatency: sim.Millisecond, RequestCPU: DefaultRequestCPU,
				Shells: arms[arm](),
			})
			if r.Errors != 0 || r.Failed != 0 || r.Resources != len(page.Resources) {
				t.Fatalf("%s %s: %d errors, %d failed, %d/%d resources",
					arm, page.Name, r.Errors, r.Failed, r.Resources, len(page.Resources))
			}
			if r.Bytes != page.TotalBytes() {
				t.Fatalf("%s %s: Result.Bytes %d, want page.TotalBytes() %d", arm, page.Name, r.Bytes, page.TotalBytes())
			}
		}
	}
}

func TestTable1SmallShape(t *testing.T) {
	cfg := DefaultTable1()
	cfg.Loads = 15
	r := Table1(cfg)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	cnbc, wikihow := r.Rows[0], r.Rows[1]
	// Reproducibility: machine means within 1%, stddev small.
	for _, row := range r.Rows {
		if row.MeanGap() > 0.01 {
			t.Errorf("%s mean gap %.2f%%, want <1%%", row.Site, row.MeanGap()*100)
		}
		if row.MaxStdFrac() > 0.05 {
			t.Errorf("%s std/mean %.2f%%, want <5%%", row.Site, row.MaxStdFrac()*100)
		}
	}
	// Site ordering: CNBC-like is the heavier page (paper: 7584 vs 4804).
	if cnbc.Machines[0].Mean() <= wikihow.Machines[0].Mean() {
		t.Errorf("CNBC PLT %.0f <= wikiHow PLT %.0f",
			cnbc.Machines[0].Mean(), wikihow.Machines[0].Mean())
	}
	if !strings.Contains(r.String(), "Table 1") {
		t.Fatal("String() malformed")
	}
}

func TestTable2SmallShape(t *testing.T) {
	cfg := Table2Config{
		Sites: 12, Seed: 2,
		Delays: []sim.Time{30 * sim.Millisecond, 120 * sim.Millisecond},
		Rates:  []int64{1_000_000, 25_000_000},
	}
	r := Table2(cfg)
	if len(r.Cells) != 4 {
		t.Fatalf("cells = %d", len(r.Cells))
	}
	// The paper's shape: the single-server distortion at high bandwidth
	// exceeds the distortion at 1 Mbit/s for the same delay.
	slow := r.Cell(30*sim.Millisecond, 1_000_000)
	fast := r.Cell(30*sim.Millisecond, 25_000_000)
	if fast.Diffs.Median() <= slow.Diffs.Median() {
		t.Errorf("median distortion: 25 Mbit/s %.1f%% <= 1 Mbit/s %.1f%%",
			fast.Diffs.Median()*100, slow.Diffs.Median()*100)
	}
	if !strings.Contains(r.String(), "Table 2") {
		t.Fatal("String() malformed")
	}
}

func TestFig3SmallShape(t *testing.T) {
	r := Fig3(Fig3Config{
		Loads: 12, Seed: 3,
		MinRTTBase: 20 * sim.Millisecond, MinRTTSpread: 20 * sim.Millisecond,
	})
	// Multi-origin replay must track the web more closely than the
	// single-server ablation (paper: 7.9% vs 29.6%).
	if r.MultiGap >= r.SingleGap {
		t.Errorf("multi gap %.1f%% >= single gap %.1f%%", r.MultiGap*100, r.SingleGap*100)
	}
	if !strings.Contains(r.String(), "Figure 3") {
		t.Fatal("String() malformed")
	}
}

func TestServersPerSiteShape(t *testing.T) {
	r := ServersPerSite(1, 500, 1)
	if r.SingleServer != 9 {
		t.Errorf("single-server = %d, want 9", r.SingleServer)
	}
	if m := r.Counts.Median(); m < 15 || m > 25 {
		t.Errorf("median = %v, want ~20", m)
	}
	if p := r.Counts.Percentile(95); p < 40 || p > 65 {
		t.Errorf("p95 = %v, want ~51", p)
	}
	if !strings.Contains(r.String(), "Servers per website") {
		t.Fatal("String() malformed")
	}
}

func TestIsolationBitIdentical(t *testing.T) {
	r := Isolation(5, 1)
	if !r.Identical() {
		t.Fatalf("isolation violated: solo %v vs concurrent %v", r.SoloPLT, r.ConcurrentPLT)
	}
	if r.CrossTraffic == 0 {
		t.Fatal("neighbour moved no traffic; experiment vacuous")
	}
	if !strings.Contains(r.String(), "bit-identical") {
		t.Fatal("String() malformed")
	}
}

func TestCorpusPagesScaling(t *testing.T) {
	pages := corpusPages(1, 50)
	if len(pages) != 50 {
		t.Fatalf("pages = %d", len(pages))
	}
	single := 0
	for _, p := range pages {
		if p.ServerCount() == 1 {
			single++
		}
	}
	if single < 1 {
		t.Fatal("scaled corpus lost its single-server sites")
	}
}

func TestProfilesRender(t *testing.T) {
	r := Profiles()
	if len(r.Lines) != 3 {
		t.Fatalf("lines = %d", len(r.Lines))
	}
}
