// Package experiments contains one driver per table and figure in the
// paper's evaluation, plus an open-ended scenario sweep. Each driver
// declares its site × shell-stack × trial grid as a Matrix and runs it on
// the sharded cell executor (internal/engine); every cell builds fresh
// namespaces per page load (as Mahimahi does per shell invocation), runs
// the load on a virtual clock, and reports the same statistics the paper
// prints. Per-cell random seeds are derived from the cell's coordinates
// alone (sim.DeriveSeed), so every artifact is byte-identical at any
// engine parallelism. The benchmarks in the
// repository root and cmd/mm-bench both call into this package, so the
// numbers in EXPERIMENTS.md are regenerated from exactly this code.
package experiments

import (
	"repro/internal/archive"
	"repro/internal/browser"
	"repro/internal/engine"
	"repro/internal/match"
	"repro/internal/nsim"
	"repro/internal/replayshell"
	"repro/internal/shells"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/webgen"
)

// AppAddr is the address of the measured application's namespace in every
// experiment.
var AppAddr = nsim.ParseAddr("100.64.0.2")

// DefaultRequestCPU is the per-request replay-server cost used by the
// paper-replication drivers (Mahimahi's fork-a-CGI-per-request matcher
// costs low milliseconds on 2014 hardware).
const DefaultRequestCPU = 10 * sim.Millisecond

// LoadSpec describes a single replayed page load.
type LoadSpec struct {
	// Page drives the browser; Site is the archive to replay (defaults to
	// webgen.Materialize(Page)).
	Page *webgen.Page
	Site *archive.Site
	// SingleServer enables ReplayShell's §4 ablation mode.
	SingleServer bool
	// Shells are nested innermost-first between the app and ReplayShell.
	Shells []shells.Shell
	// DNSLatency is the replay resolver's uncached cost.
	DNSLatency sim.Time
	// RequestCPU is the per-request replay-server processing cost (the
	// CGI matcher); see replayshell.Config.RequestCPU.
	RequestCPU sim.Time
	// CPUJitterSigma perturbs the browser's compute scale per load,
	// modelling host-machine noise (Table 1's machine-to-machine and
	// load-to-load variation). Zero gives bit-deterministic loads.
	CPUJitterSigma float64
	// Rand supplies the jitter; required when CPUJitterSigma > 0.
	Rand *sim.Rand
	// Browser overrides browser options; nil uses defaults.
	Browser *browser.Options
	// Shard supplies the event loop, packet and segment pools, browser
	// working storage and matcher index the load runs on; a matrix cell
	// passes the shard it was given. Nil runs the load on shard 0 of a
	// pooled one-shard engine. Shard contents never influence results,
	// only where allocations come from.
	Shard *engine.Shard
}

// loadScratch is the page-load state a shard keeps across its loads: the
// browser's working storage and a matcher index for the last site loaded.
type loadScratch struct {
	browser     browser.Scratch
	matcherSite *archive.Site
	matcher     *match.Matcher
}

// loadScratchFor returns sh's page-load scratch, creating it on first use.
func loadScratchFor(sh *engine.Shard) *loadScratch {
	return sh.Scratch("experiments.load", func() any { return new(loadScratch) }).(*loadScratch)
}

// matcherFor returns a matcher index for site, rebuilding only when the
// site changes.
func (s *loadScratch) matcherFor(site *archive.Site) *match.Matcher {
	if s.matcherSite != site {
		s.matcher = match.New(site)
		s.matcherSite = site
	}
	return s.matcher
}

// Load runs one page load in a fresh network and returns the result. The
// simulation's bulk allocations (packets, datagrams, segments, browser
// working storage, the replay matcher index) come from spec.Shard, so
// sequential loads on one shard reuse one warmed set of pools instead of
// reallocating it per load.
func Load(spec LoadSpec) browser.Result {
	sh := spec.Shard
	if sh == nil {
		e := takeEngine(1)
		defer engines.Put(e)
		sh = e.Shard(0)
	}
	sc := loadScratchFor(sh)
	loop := sh.Loop()
	network := nsim.NewNetworkPooled(loop, sh.Pools())
	site := spec.Site
	if site == nil {
		site = webgen.Materialize(spec.Page)
	}
	replay, err := replayshell.New(network, replayshell.Config{
		Site:         site,
		SingleServer: spec.SingleServer,
		DNSLatency:   spec.DNSLatency,
		RequestCPU:   spec.RequestCPU,
		Matcher:      sc.matcherFor(site),
		Segments:     sh.Segments(),
	})
	if err != nil {
		panic("experiments: " + err.Error())
	}
	st := shells.Build(network, replay.NS, AppAddr, spec.Shells...)

	opts := browser.DefaultOptions()
	if spec.Browser != nil {
		opts = *spec.Browser
	}
	if spec.CPUJitterSigma > 0 && spec.Rand != nil {
		opts.CPUScale *= 1 + spec.CPUJitterSigma*spec.Rand.NormFloat64()
		if opts.CPUScale < 0.1 {
			opts.CPUScale = 0.1
		}
	}
	b := browser.New(tcpsim.NewStackPool(st.App, sh.Segments()), replay.Resolver, AppAddr, opts)
	b.UseScratch(&sc.browser)
	var result browser.Result
	b.Load(spec.Page, func(r browser.Result) { result = r })
	loop.Run()
	return result
}

// PLTms runs Load and returns the page load time in milliseconds.
func PLTms(spec LoadSpec) float64 {
	return Load(spec).PLT.Milliseconds()
}
