package experiments

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
)

// artifacts renders a subsampled version of every experiment artifact
// mm-bench regenerates at a given engine parallelism.
var artifacts = map[string]func(parallel int) string{
	"fig2": func(parallel int) string {
		cfg := Fig2Config{
			Sites: 12, Seed: 1,
			DelayForwarding: 30 * sim.Microsecond,
			LinkForwarding:  250 * sim.Microsecond,
			Parallel:        parallel,
		}
		return Fig2(cfg).String()
	},
	"table1": func(parallel int) string {
		cfg := DefaultTable1()
		cfg.Loads = 6
		cfg.Parallel = parallel
		return Table1(cfg).String()
	},
	"table2": func(parallel int) string {
		cfg := Table2Config{
			Sites: 8, Seed: 2,
			Delays:   []sim.Time{30 * sim.Millisecond},
			Rates:    []int64{1_000_000, 25_000_000},
			Parallel: parallel,
		}
		return Table2(cfg).String()
	},
	"fig3": func(parallel int) string {
		cfg := Fig3Config{
			Loads: 6, Seed: 3,
			MinRTTBase: 20 * sim.Millisecond, MinRTTSpread: 20 * sim.Millisecond,
			Parallel: parallel,
		}
		return Fig3(cfg).String()
	},
	"isolation": func(parallel int) string {
		return Isolation(5, parallel).String()
	},
	"sweep": func(parallel int) string {
		cfg := DefaultSweep()
		cfg.Sites = 6
		cfg.Parallel = parallel
		return Sweep(cfg).String()
	},
	// The codel cells put the RFC 8289 control law — drop spacing, count
	// decay, sojourn arithmetic — under the same byte-identity contract as
	// every droptail artifact; the codel-ecn, pie and pie-ecn cells extend
	// the contract over the marking state machine, PIE's probability
	// controller with its deterministic draw stream, the ECN negotiation
	// and echo in tcpsim, and the per-flow fairness attribution. The
	// fq_codel and fq_codel-ecn cells (part of the default grid) add the
	// RFC 8290 machinery: flow hashing, DRR rotation with new/old lists,
	// per-bucket CoDel state, and the fattest-bucket overflow law — plus
	// the per-flow sojourn histograms behind the fairness table's
	// median-of-flow-p95 column, which is exactly the statistic that
	// caught a map-iteration nondeterminism aggregate counters missed.
	"bufferbloat": func(parallel int) string {
		cfg := DefaultBufferbloat()
		cfg.BulkBytes = 2 << 20
		cfg.HeadStart = 500 * sim.Millisecond
		cfg.Parallel = parallel
		return Bufferbloat(cfg).String()
	},
	// The contention cells run the many-flow engine workload — hundreds of
	// pooled tcpsim conns, Pareto web sizes, per-class Poisson arrivals,
	// per-flow sojourn attribution — under the same contract. This is also
	// the shard-count check for the contention workload on the engine,
	// work stealing included.
	"contention": func(parallel int) string {
		cfg := DefaultContention()
		cfg.Flows = 24
		cfg.BulkBytes = 64 << 10
		cfg.Parallel = parallel
		return Contention(cfg).String()
	},
	// The dynamics cells run the chaos scheduler: scripted mid-load link
	// faults (outage, handover, rate step, loss burst, AQM hot-swap) whose
	// transition transcripts and per-phase queue epochs are part of the
	// artifact. Byte-identity here pins every transition instant, every
	// drain accounting number, and the recovery behaviour of the endpoint
	// stacks (RTO backoff ladders, browser response deadlines) across
	// shard counts.
	"dynamics": func(parallel int) string {
		cfg := DefaultDynamics()
		cfg.Parallel = parallel
		return Dynamics(cfg).String()
	},
	// The linkchar cells put the impairment vocabulary — reorder holds on
	// the virtual clock, pooled duplication clones, corruption flags, the
	// 4-state Markov chain, and a scripted mid-run reorder episode — under
	// the byte-identity contract, over the synthesized link-character
	// corpus. Every impairment box's one-draw-per-packet stream and the
	// tcpsim goodput accounting (DupBytesRcvd, ChecksumDrops) are pinned
	// here across parallelism.
	"linkchar": func(parallel int) string {
		cfg := DefaultLinkchar()
		cfg.Parallel = parallel
		return Linkchar(cfg).String()
	},
}

// TestArtifactParallelDeterminism is the determinism safety net: every
// artifact must be byte-identical at engine parallelism 1, 2 and 8 (run
// with -race in CI). This is what licenses parallelism, work stealing and
// packet trains as pure performance knobs — none of them may move a number.
func TestArtifactParallelDeterminism(t *testing.T) {
	names := make([]string, 0, len(artifacts))
	for name := range artifacts {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		render := artifacts[name]
		base := parallelLevels[0]
		want := render(base)
		if want == "" {
			t.Fatalf("%s: empty artifact (parallel=%d)", name, base)
		}
		for _, parallel := range parallelLevels[1:] {
			got := render(parallel)
			if got == want {
				continue
			}
			line, w, g := firstDiffLine(want, got)
			t.Errorf("%s: artifact differs at line %d between parallel=%d and parallel=%d:\n  parallel=%d: %q\n  parallel=%d: %q",
				name, line, base, parallel, base, w, parallel, g)
		}
	}
}

// firstDiffLine returns the first line (1-based) where a and b differ and
// that line of each; a missing line reads as "".
func firstDiffLine(a, b string) (int, string, string) {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; ; i++ {
		var x, y string
		if i < len(la) {
			x = la[i]
		}
		if i < len(lb) {
			y = lb[i]
		}
		if x != y || i >= len(la) || i >= len(lb) {
			return i + 1, x, y
		}
	}
}
