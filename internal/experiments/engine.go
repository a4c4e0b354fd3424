package experiments

import (
	"fmt"
	"runtime"
	"sync"

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
// and table driver in this package declares its work as a Matrix and hands
// it to a Runner; the copy-pasted per-driver loop scaffolding this
// replaces lives in the drivers' git history.
//
// Run must be pure up to its arguments: it may not mutate state shared
// with other cells (each call builds its own sim.Loop and network;
// cross-cell inputs like generated pages, materialized sites and parsed
// traces are shared but immutable once built, see materializeAll), and
// all randomness must come from generators seeded with the supplied seed.
// Under those conditions the matrix's results are bit-identical at any
// parallelism level.
type Matrix struct {
	// Name labels the experiment for diagnostics.
	Name string
	// RootSeed is the experiment's root seed; every cell's seed is derived
	// from it via Cell.Seed.
	RootSeed uint64
	// Cells enumerates the scenario coordinates in output order. The
	// engine returns results index-aligned with this slice, so the merge
	// step that folds cell results into figures and tables sees them in
	// this fixed order regardless of execution interleaving.
	Cells []Cell
	// Run executes cell i and returns its measurement values (e.g. one
	// PLT, or several related arms measured together). i is the cell's
	// index in Cells and seed is Cells[i].Seed(RootSeed), precomputed by
	// the engine.
	Run func(i int, c Cell, seed uint64) []float64
}

// Runner executes scenario matrices across a pool of worker goroutines.
//
// Determinism guarantee: for a Matrix whose Run function is pure (see
// Matrix.Run), the slice returned by Run is identical — byte for byte,
// once formatted — for every Parallel value, because (1) each cell's seed
// is derived from its coordinates alone, (2) cells share no state, and
// (3) results are written to the index-aligned slot of the cell that
// produced them, never appended in completion order.
type Runner struct {
	// Parallel is the worker-goroutine count. Zero or negative means
	// GOMAXPROCS(0); one runs the matrix sequentially on the calling
	// goroutine.
	Parallel int
}

// NewRunner returns a Runner with the given parallelism (see
// Runner.Parallel for the zero convention).
func NewRunner(parallel int) *Runner { return &Runner{Parallel: parallel} }

// workers resolves Parallel to an effective worker count.
func (r *Runner) workers() int {
	n := r.Parallel
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return n
}

// Run executes every cell of the matrix and returns their values
// index-aligned with m.Cells. Cells are dispatched to min(Parallel,
// len(Cells)) workers through a shared index channel; with Parallel == 1
// no goroutines are spawned at all.
func (r *Runner) Run(m *Matrix) [][]float64 {
	results := make([][]float64, len(m.Cells))
	n := r.workers()
	if n > len(m.Cells) {
		n = len(m.Cells)
	}
	if n <= 1 {
		for i, c := range m.Cells {
			results[i] = m.Run(i, c, c.Seed(m.RootSeed))
		}
		return results
	}
	indices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				c := m.Cells[i]
				results[i] = m.Run(i, c, c.Seed(m.RootSeed))
			}
		}()
	}
	for i := range m.Cells {
		indices <- i
	}
	close(indices)
	wg.Wait()
	return results
}
