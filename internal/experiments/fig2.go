package experiments

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/archive"
	"repro/internal/shells"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/webgen"
)

// Fig2Config parameterizes Figure 2 (shell overhead).
type Fig2Config struct {
	// Sites is the corpus size (paper: 500).
	Sites int
	// Seed generates the corpus and roots the scenario matrix.
	Seed uint64
	// DelayForwarding is the per-packet processing cost charged by
	// DelayShell's forwarder. On real hardware this is the packet-copy and
	// context-switch cost that makes "DelayShell 0 ms" 0.15% slower than
	// bare ReplayShell; a virtual clock has no intrinsic CPU cost, so the
	// measured per-packet cost is modelled explicitly (see EXPERIMENTS.md).
	DelayForwarding sim.Time
	// LinkForwarding is the per-packet cost of LinkShell's trace-driven
	// forwarder, which on real hardware is costlier than plain delay
	// forwarding (trace bookkeeping, busier queues); it adds to the
	// millisecond quantization of delivery opportunities that TraceBox
	// already models.
	LinkForwarding sim.Time
	// Parallel is the engine worker count (see Runner.Parallel).
	Parallel int
}

// DefaultFig2 uses the paper's corpus size.
func DefaultFig2() Fig2Config {
	return Fig2Config{
		Sites: 500, Seed: 1,
		DelayForwarding: 30 * sim.Microsecond,
		LinkForwarding:  250 * sim.Microsecond,
		Parallel:        1,
	}
}

// Fig2Result holds the three PLT distributions of Figure 2.
type Fig2Result struct {
	Replay    *stats.Sample // ReplayShell alone
	Delay0    *stats.Sample // + DelayShell 0 ms
	Link1000  *stats.Sample // + LinkShell 1000 Mbit/s
	OverheadD float64       // median overhead of DelayShell 0 ms (fraction)
	OverheadL float64       // median overhead of LinkShell 1000 Mbit/s
}

// Fig2 arm labels, in output order.
var fig2Arms = []string{"replay", "delay0", "link1000"}

// Fig2 loads every corpus site once under each of the three stacks and
// reports the PLT CDFs plus median overheads (paper: 0.15% and 1.5%). The
// site × stack grid is declared as a scenario matrix and fanned out by the
// engine; loads are jitter-free, so the distributions are bit-identical at
// any Parallel level.
func Fig2(cfg Fig2Config) Fig2Result {
	pages := corpusPages(cfg.Seed, cfg.Sites)
	armShells := fig2ArmShells(cfg)

	// Each site is materialized by the first cell that loads it, on that
	// cell's worker, and shared by every later cell: an archive.Site is
	// immutable once built and only read during loads, and handing out one
	// pointer per site keeps Scratch.matcherFor's index warm.
	sites := materializeAll(pages)

	m := &Matrix{Name: "fig2", RootSeed: cfg.Seed}
	for i := range pages {
		for _, arm := range fig2Arms {
			m.Cells = append(m.Cells, Cell{Site: siteLabel(i), Shell: arm})
		}
	}
	m.Run = func(i int, c Cell, seed uint64) []float64 {
		si := i / len(fig2Arms)
		return []float64{PLTms(LoadSpec{
			Page: pages[si], Site: sites[si](),
			DNSLatency: sim.Millisecond, RequestCPU: DefaultRequestCPU,
			Shells: armShells[c.Shell](),
		})}
	}

	// Merge per-cell PLTs into per-arm distributions in matrix order.
	acc := map[string]*stats.Accumulator{}
	for _, arm := range fig2Arms {
		acc[arm] = stats.NewAccumulator()
	}
	for i, vals := range NewRunner(cfg.Parallel).Run(m) {
		acc[m.Cells[i].Shell].Add(vals...)
	}
	r := Fig2Result{
		Replay:   acc["replay"].Sample(),
		Delay0:   acc["delay0"].Sample(),
		Link1000: acc["link1000"].Sample(),
	}
	r.OverheadD = stats.RelDiff(r.Delay0.Median(), r.Replay.Median())
	r.OverheadL = stats.RelDiff(r.Link1000.Median(), r.Replay.Median())
	return r
}

// fig2ArmShells maps each Fig2 arm label to a constructor of its shell
// stack (fresh shells per load).
func fig2ArmShells(cfg Fig2Config) map[string]func() []shells.Shell {
	t1000, err := trace.Constant(1_000_000_000, 1000)
	if err != nil {
		panic(err)
	}
	return map[string]func() []shells.Shell{
		"replay": func() []shells.Shell { return nil },
		"delay0": func() []shells.Shell {
			return []shells.Shell{shells.NewDelayShell(cfg.DelayForwarding)}
		},
		"link1000": func() []shells.Shell {
			return []shells.Shell{
				shells.NewDelayShell(cfg.LinkForwarding),
				shells.NewLinkShell(t1000, t1000),
			}
		},
	}
}

// String renders the figure as text: summary lines plus an ASCII CDF.
func (r Fig2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: shell overhead on page load time (%d sites)\n", r.Replay.Len())
	fmt.Fprintf(&b, "  ReplayShell alone        median %7.0f ms\n", r.Replay.Median())
	fmt.Fprintf(&b, "  + DelayShell 0 ms        median %7.0f ms  (overhead %+.2f%%; paper: +0.15%%)\n",
		r.Delay0.Median(), r.OverheadD*100)
	fmt.Fprintf(&b, "  + LinkShell 1000 Mbit/s  median %7.0f ms  (overhead %+.2f%%; paper: +1.5%%)\n",
		r.Link1000.Median(), r.OverheadL*100)
	b.WriteString(stats.ASCIICDF(60, 12,
		[]string{"ReplayShell", "DelayShell 0ms", "LinkShell 1000Mbps"},
		[]*stats.Sample{r.Replay, r.Delay0, r.Link1000}))
	return b.String()
}

// siteLabel names corpus site i for cell coordinates.
func siteLabel(i int) string { return fmt.Sprintf("site%03d", i) }

// materializeAll returns one lazy replay archive per page. The first call
// of sites[i]() builds page i's site on the calling goroutine (a Runner
// worker, inside the cell that needs it); concurrent and later calls wait
// for and share that one *archive.Site, so cells never rebuild a site and
// the build cost is spread over the Runner's workers instead of paid
// serially before the fan-out.
func materializeAll(pages []*webgen.Page) []func() *archive.Site {
	return onceEach(pages, webgen.Materialize)
}

// onceEach returns one memoizing thunk per input: thunk i runs build(in[i])
// at most once, on the goroutine of its first caller.
func onceEach[T, R any](in []T, build func(T) R) []func() R {
	out := make([]func() R, len(in))
	for i, v := range in {
		out[i] = sync.OnceValue(func() R { return build(v) })
	}
	return out
}

// corpusPages generates the experiment corpus, scaled to n sites with the
// paper's server-count distribution.
func corpusPages(seed uint64, n int) []*webgen.Page {
	spec := webgen.PaperCorpus()
	if n > 0 && n != spec.Sites {
		// Scale the exact single-server count proportionally.
		spec.SingleServer = spec.SingleServer * n / spec.Sites
		if spec.SingleServer < 1 && n >= 20 {
			spec.SingleServer = 1
		}
		spec.Sites = n
	}
	return webgen.GenerateCorpus(seed, spec)
}
