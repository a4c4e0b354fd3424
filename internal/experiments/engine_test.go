package experiments

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/archive"
	"repro/internal/sim"
	"repro/internal/webgen"
)

// TestRunnerIndexAlignment checks results land in the slot of the cell
// that produced them, not in completion order.
func TestRunnerIndexAlignment(t *testing.T) {
	m := &Matrix{Name: "align", RootSeed: 1}
	for i := 0; i < 64; i++ {
		m.Cells = append(m.Cells, Cell{Site: siteLabel(i), Shell: "s", Trial: i})
	}
	m.Run = func(i int, c Cell, seed uint64) []float64 {
		return []float64{float64(i), float64(c.Trial)}
	}
	for _, parallel := range []int{1, 3, 8, 100} {
		results := NewRunner(parallel).Run(m)
		if len(results) != len(m.Cells) {
			t.Fatalf("parallel=%d: %d results for %d cells", parallel, len(results), len(m.Cells))
		}
		for i, vals := range results {
			if vals[0] != float64(i) || vals[1] != float64(i) {
				t.Fatalf("parallel=%d: slot %d holds cell %v/%v", parallel, i, vals[0], vals[1])
			}
		}
	}
}

// TestRunnerSeedsMatchCells checks the engine hands each Run call exactly
// Cells[i].Seed(RootSeed), at every parallelism.
func TestRunnerSeedsMatchCells(t *testing.T) {
	m := &Matrix{Name: "seeds", RootSeed: 99}
	for i := 0; i < 32; i++ {
		m.Cells = append(m.Cells, Cell{Site: "site", Shell: "shell", Trial: i})
	}
	m.Run = func(i int, c Cell, seed uint64) []float64 {
		if want := c.Seed(99); seed != want {
			t.Errorf("cell %d: engine seed %#x, want %#x", i, seed, want)
		}
		return nil
	}
	for _, parallel := range []int{1, 4} {
		NewRunner(parallel).Run(m)
	}
}

// TestRunnerActuallyFansOut checks that with Parallel > 1 more than one
// worker goroutine participates (the workers draw from a shared channel,
// so under the race of a fast first worker this could in principle flake;
// the barrier cell forces overlap).
func TestRunnerActuallyFansOut(t *testing.T) {
	var inflight, peak atomic.Int64
	var release sync.Once
	block := make(chan struct{})
	m := &Matrix{Name: "fanout"}
	for i := 0; i < 4; i++ {
		m.Cells = append(m.Cells, Cell{Site: siteLabel(i)})
	}
	m.Run = func(i int, c Cell, seed uint64) []float64 {
		n := inflight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		if n == 2 {
			// Two cells are in flight simultaneously: release everyone.
			release.Do(func() { close(block) })
		}
		<-block
		inflight.Add(-1)
		return nil
	}
	NewRunner(4).Run(m)
	if peak.Load() < 2 {
		t.Fatalf("peak concurrent cells = %d, want >= 2", peak.Load())
	}
}

// TestCellSeedStable pins the cell→seed mapping (a regression guard on
// top of sim.DeriveSeed's own golden test: the engine must keep deriving
// through Site, Shell, Trial in that order).
func TestCellSeedStable(t *testing.T) {
	c := Cell{Site: "site042", Shell: "delay30ms", Trial: 0}
	if got, want := c.Seed(1), sim.DeriveSeed(1, "site042", "delay30ms", "0"); got != want {
		t.Fatalf("Cell.Seed = %#x, want %#x", got, want)
	}
	if c.Seed(1) != c.Seed(1) {
		t.Fatal("Cell.Seed not stable")
	}
	if c.Seed(1) == c.Seed(2) {
		t.Fatal("root seed ignored")
	}
	if (Cell{Site: "site042", Shell: "delay30ms", Trial: 1}).Seed(1) == c.Seed(1) {
		t.Fatal("trial ignored")
	}
}

// parallelLevels are the engine widths every artifact must agree across.
var parallelLevels = []int{1, 2, 8}

// TestFig2ParallelDeterminism: the formatted Figure 2 artifact must be
// byte-identical at -parallel 1, 2 and 8.
func TestFig2ParallelDeterminism(t *testing.T) {
	render := func(parallel int) string {
		cfg := Fig2Config{
			Sites: 12, Seed: 1,
			DelayForwarding: 30 * sim.Microsecond,
			LinkForwarding:  250 * sim.Microsecond,
			Parallel:        parallel,
		}
		return Fig2(cfg).String()
	}
	assertIdenticalAcrossParallelism(t, render)
}

// TestTable1ParallelDeterminism: Table 1 (which draws per-load host-noise
// jitter, the hard case) must be byte-identical at every parallelism.
func TestTable1ParallelDeterminism(t *testing.T) {
	render := func(parallel int) string {
		cfg := DefaultTable1()
		cfg.Loads = 6
		cfg.Parallel = parallel
		return Table1(cfg).String()
	}
	assertIdenticalAcrossParallelism(t, render)
}

// TestTable2ParallelDeterminism: the Table 2 grid must be byte-identical
// at every parallelism.
func TestTable2ParallelDeterminism(t *testing.T) {
	render := func(parallel int) string {
		cfg := Table2Config{
			Sites: 8, Seed: 2,
			Delays:   []sim.Time{30 * sim.Millisecond},
			Rates:    []int64{1_000_000, 25_000_000},
			Parallel: parallel,
		}
		return Table2(cfg).String()
	}
	assertIdenticalAcrossParallelism(t, render)
}

// TestFig3ParallelDeterminism: Figure 3 (shared per-trial RTT draws plus
// jitter) must be byte-identical at every parallelism.
func TestFig3ParallelDeterminism(t *testing.T) {
	render := func(parallel int) string {
		cfg := Fig3Config{
			Loads: 6, Seed: 3,
			MinRTTBase: 20 * sim.Millisecond, MinRTTSpread: 20 * sim.Millisecond,
			Parallel: parallel,
		}
		return Fig3(cfg).String()
	}
	assertIdenticalAcrossParallelism(t, render)
}

// TestSweepParallelDeterminism: the open-ended sweep (jitter and loss
// streams derived per cell) must be byte-identical at every parallelism.
func TestSweepParallelDeterminism(t *testing.T) {
	render := func(parallel int) string {
		cfg := DefaultSweep()
		cfg.Sites = 6
		cfg.Parallel = parallel
		return Sweep(cfg).String()
	}
	assertIdenticalAcrossParallelism(t, render)
}

// assertIdenticalAcrossParallelism renders an artifact at each engine
// width and requires byte equality with the sequential rendering.
func assertIdenticalAcrossParallelism(t *testing.T, render func(parallel int) string) {
	t.Helper()
	want := render(parallelLevels[0])
	if want == "" {
		t.Fatal("empty artifact")
	}
	for _, p := range parallelLevels[1:] {
		if got := render(p); got != want {
			t.Errorf("artifact differs at parallel=%d:\n--- parallel=%d ---\n%s\n--- parallel=%d ---\n%s",
				p, parallelLevels[0], want, p, got)
		}
	}
}

// TestSweepShape sanity-checks the sweep driver itself: the grid size and
// the monotone effect of added delay.
func TestSweepShape(t *testing.T) {
	cfg := DefaultSweep()
	cfg.Sites = 6
	r := Sweep(cfg)
	wantRows := len(cfg.Delays) * len(cfg.Rates) * len(cfg.LossProbs)
	if len(r.Rows) != wantRows {
		t.Fatalf("rows = %d, want %d", len(r.Rows), wantRows)
	}
	if r.Cells != wantRows*cfg.Sites*cfg.Trials {
		t.Fatalf("cells = %d, want %d", r.Cells, wantRows*cfg.Sites*cfg.Trials)
	}
	// Same rate and loss, more delay -> slower loads.
	lo := r.Rows[0] // delay 30ms, loss 0
	var hi *SweepRow
	for i := range r.Rows {
		if r.Rows[i].Stack.Delay == 120*sim.Millisecond && r.Rows[i].Stack.Loss == 0 {
			hi = &r.Rows[i]
		}
	}
	if hi == nil {
		t.Fatal("120ms row missing")
	}
	if hi.PLT.Median() <= lo.PLT.Median() {
		t.Errorf("median PLT at 120ms (%v) <= 30ms (%v)", hi.PLT.Median(), lo.PLT.Median())
	}
	if !strings.Contains(r.String(), "Scenario sweep") {
		t.Fatal("String() malformed")
	}
}

// TestRunnerLazySitesBuiltOnce runs many cells per site on 8 workers:
// every cell of a site must see the same *archive.Site pointer (so
// Scratch.matcherFor keeps its index), each site must equal an eager
// webgen.Materialize, and onceEach must run each build exactly once even
// when cells race for it.
func TestRunnerLazySitesBuiltOnce(t *testing.T) {
	pages := corpusPages(3, 6)
	const perSite = 16
	m := &Matrix{Name: "lazy"}
	for si := range pages {
		for trial := 0; trial < perSite; trial++ {
			m.Cells = append(m.Cells, Cell{Site: siteLabel(si), Trial: trial})
		}
	}

	sites := materializeAll(pages)
	seen := make([]*archive.Site, len(m.Cells))
	m.Run = func(i int, c Cell, seed uint64) []float64 {
		seen[i] = sites[i/perSite]()
		return nil
	}
	NewRunner(8).Run(m)
	for i, s := range seen {
		first := seen[i/perSite*perSite]
		if s == nil || s != first {
			t.Fatalf("cell %d: site %p, first cell of its site got %p", i, s, first)
		}
	}
	encode := func(s *archive.Site) []byte {
		var b bytes.Buffer
		for _, e := range s.Exchanges {
			if err := archive.WriteExchange(&b, e); err != nil {
				t.Fatal(err)
			}
		}
		return b.Bytes()
	}
	for si, p := range pages {
		if !bytes.Equal(encode(sites[si]()), encode(webgen.Materialize(p))) {
			t.Fatalf("site %d: lazy archive differs from webgen.Materialize", si)
		}
	}

	builds := make([]atomic.Int64, len(pages))
	counted := onceEach(pages, func(p *webgen.Page) *webgen.Page {
		for i := range pages {
			if pages[i] == p {
				builds[i].Add(1)
			}
		}
		return p
	})
	m.Run = func(i int, c Cell, seed uint64) []float64 {
		if got := counted[i/perSite](); got != pages[i/perSite] {
			t.Errorf("cell %d: built value for the wrong page", i)
		}
		return nil
	}
	NewRunner(8).Run(m)
	for si := range builds {
		if n := builds[si].Load(); n != 1 {
			t.Fatalf("site %d built %d times, want 1", si, n)
		}
	}
}
