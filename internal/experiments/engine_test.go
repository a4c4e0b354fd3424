package experiments

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/archive"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/webgen"
)

// TestMatrixSeedsMatchCells checks the engine hands each Run call exactly
// Cells[i].Seed(RootSeed), at every parallelism.
func TestMatrixSeedsMatchCells(t *testing.T) {
	m := &Matrix{Name: "seeds", RootSeed: 99}
	for i := 0; i < 32; i++ {
		m.Cells = append(m.Cells, Cell{Site: "site", Shell: "shell", Trial: i})
	}
	m.Run = func(_ *engine.Shard, i int, c Cell, seed uint64) []float64 {
		if want := c.Seed(99); seed != want {
			t.Errorf("cell %d: engine seed %#x, want %#x", i, seed, want)
		}
		return nil
	}
	for _, parallel := range []int{1, 4} {
		m.run(parallel)
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

// TestMatrixLazySitesBuiltOnce runs many cells per site on 8 shards:
// every cell of a site must see the same *archive.Site pointer (so a
// shard's matcher index stays warm), each site must equal an eager
// webgen.Materialize, and onceEach must run each build exactly once even
// when cells race for it.
func TestMatrixLazySitesBuiltOnce(t *testing.T) {
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
	m.Run = func(_ *engine.Shard, i int, c Cell, seed uint64) []float64 {
		seen[i] = sites[i/perSite]()
		return nil
	}
	m.run(8)
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
	m.Run = func(_ *engine.Shard, i int, c Cell, seed uint64) []float64 {
		if got := counted[i/perSite](); got != pages[i/perSite] {
			t.Errorf("cell %d: built value for the wrong page", i)
		}
		return nil
	}
	m.run(8)
	for si := range builds {
		if n := builds[si].Load(); n != 1 {
			t.Fatalf("site %d built %d times, want 1", si, n)
		}
	}
}

// TestPooledEngineReuseIsInvisible: a pooled engine outlives the driver
// call that warmed it. A width-2 engine that already carries warm pools
// and oracle weights from a Table 2 call must render Figure 2
// byte-identically to a fresh engine — on the cold plan its first Figure 2
// call gets (the oracle keeps experiments apart by label) and on the LPT
// plan the retained Figure 2 weights give the next call.
func TestPooledEngineReuseIsInvisible(t *testing.T) {
	fig2 := func() string {
		return Fig2(Fig2Config{
			Sites: 10, Seed: 1,
			DelayForwarding: 30 * sim.Microsecond,
			LinkForwarding:  250 * sim.Microsecond,
			Parallel:        2,
		}).String()
	}
	want := withPooledEngine(engine.New(2), fig2)

	warm := engine.New(2)
	withPooledEngine(warm, func() string {
		return Table2(Table2Config{
			Sites: 4, Seed: 2,
			Delays:   []sim.Time{30 * sim.Millisecond},
			Rates:    []int64{1_000_000},
			Parallel: 2,
		}).String()
	})
	for _, plan := range []string{"cold", "lpt"} {
		got := withPooledEngine(warm, fig2)
		p := warm.Placement()
		if !strings.HasPrefix(p.Cells[0].Label, "fig2/") {
			t.Fatalf("%s: Fig2 did not run on the pooled engine (last label %q)", plan, p.Cells[0].Label)
		}
		if p.Oracle != (plan == "lpt") {
			t.Fatalf("%s: placement oracle = %v", plan, p.Oracle)
		}
		if got != want {
			t.Fatalf("%s: Figure 2 on a reused engine differs from a fresh engine:\n%s\n--- fresh ---\n%s", plan, got, want)
		}
	}
}

// withPooledEngine runs f while every engine request from the pool is
// answered by e. sync.Pool may drop a Put (it does so at random under the
// race detector), so e is installed as the empty pool's New rather than
// put into it.
func withPooledEngine(e *engine.Engine, f func() string) string {
	drain := func() {
		for engines.Get() != nil {
		}
	}
	drain()
	engines.New = func() any { return e }
	defer func() {
		engines.New = nil
		drain()
	}()
	return f()
}
