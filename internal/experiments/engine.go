package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/engine"
	"repro/internal/sim"
)

// Cell identifies one independent unit of experiment work: a single (site,
// shell-stack, trial) coordinate of a scenario matrix. A cell's identity —
// not its execution order — determines its random seed, which is the
// foundation of the engine's determinism guarantee: Seed depends only on
// the matrix root seed and the three coordinate labels, so the cell draws
// the same random stream whether it runs first or last, alone or beside a
// thousand concurrent cells.
type Cell struct {
	// Site labels the page or corpus entry under test (e.g. "site042",
	// "cnbc-like").
	Site string
	// Shell labels the emulation stack the load runs under (e.g.
	// "delay30ms+link14", "replay", "machine1").
	Shell string
	// Trial distinguishes repeated runs of the same (Site, Shell)
	// coordinate; drivers that load each coordinate once leave it zero.
	Trial int
}

// Seed derives the cell's deterministic RNG seed from the matrix root
// seed: DeriveSeed(root, Site, Shell, Trial). Equal cells always derive
// equal seeds; any change to a coordinate label yields an unrelated seed.
func (c Cell) Seed(root uint64) uint64 {
	return sim.DeriveSeed(root, c.Site, c.Shell, fmt.Sprintf("%d", c.Trial))
}

// String renders the cell coordinate for diagnostics.
func (c Cell) String() string {
	return fmt.Sprintf("%s/%s/%d", c.Site, c.Shell, c.Trial)
}

// Matrix is a declarative scenario matrix: the full list of cells an
// experiment must run, plus the function that runs one cell. Every figure
// and table driver in this package declares its work as a Matrix and runs
// it on the sharded cell executor (internal/engine) through Matrix.run.
//
// Run must be pure up to its arguments: it may not mutate state shared
// with other cells (each call simulates on the shard's reset loop and
// pools; cross-cell inputs like generated pages, materialized sites and
// parsed traces are shared but immutable once built, see materializeAll),
// and all randomness must come from generators seeded with the supplied
// seed. Under those conditions the matrix's results are bit-identical at
// any parallelism level and under any cell placement.
type Matrix struct {
	// Name labels the experiment. It prefixes every cell's engine label,
	// which keeps experiments apart in the engine's cost oracle.
	Name string
	// RootSeed is the experiment's root seed; every cell's seed is derived
	// from it via Cell.Seed.
	RootSeed uint64
	// Cells enumerates the scenario coordinates in output order. The
	// engine returns results index-aligned with this slice, so the merge
	// step that folds cell results into figures and tables sees them in
	// this fixed order regardless of execution interleaving.
	Cells []Cell
	// Run executes cell i on shard sh and returns its measurement values
	// (e.g. one PLT, or several related arms measured together). i is the
	// cell's index in Cells and seed is Cells[i].Seed(RootSeed). The shard
	// supplies the loop and pools the cell simulates on; pass it on as
	// LoadSpec.Shard.
	Run func(sh *engine.Shard, i int, c Cell, seed uint64) []float64
}

// run executes every cell of the matrix on a pooled engine of the given
// width (<= 0: GOMAXPROCS) and returns their values index-aligned with
// m.Cells. Cell labels are Name/Site/Shell/Trial; seeds derive from the
// cell coordinates alone, never from the shard that runs the cell.
func (m *Matrix) run(parallel int) [][]float64 {
	labels := make([]string, len(m.Cells))
	for i, c := range m.Cells {
		labels[i] = m.Name + "/" + c.String()
	}
	e := takeEngine(parallel)
	defer engines.Put(e)
	out := e.Run(engine.Job{Cells: labels, Run: func(sh *engine.Shard, i int, _ string) any {
		c := m.Cells[i]
		return m.Run(sh, i, c, c.Seed(m.RootSeed))
	}})
	results := make([][]float64, len(out))
	for i, v := range out {
		results[i] = v.([]float64)
	}
	return results
}

// engines recycles engines across driver calls and nil-shard Loads. Warm
// worker state must outlive one driver call: a fresh engine per call
// regrows every shard's loop, packet pools and browser parsers, which cost
// Figure 2 about a fifth of its throughput (see DESIGN.md). sync.Pool hands
// an engine to one goroutine at a time, so concurrent callers never share
// a shard.
var engines sync.Pool

// takeEngine returns a pooled engine with the given width (<= 0:
// GOMAXPROCS), or a new one when the pool holds none of that width. The
// caller returns it with engines.Put.
func takeEngine(parallel int) *engine.Engine {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if e, ok := engines.Get().(*engine.Engine); ok && e.NumShards() == parallel {
		return e
	}
	return engine.New(parallel)
}
