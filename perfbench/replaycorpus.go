package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/experiments"
	"repro/internal/match"
	"repro/internal/netem"
	"repro/internal/shells"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/webgen"
)

// replay-corpus regenerates Figure 2 (replay, DelayShell 0 ms, LinkShell
// 1000 Mbit/s on every corpus site) with experiments.Fig2 at Parallel =
// nproc, the way mm-bench does. One batch is one Fig2 call on a small
// paper-distribution corpus; the run cycles through rcCorpora corpora
// derived from the seed, so it covers hundreds of distinct sites (one
// seed's luck in page sizes averages out) and repeats each a few times.
// Op = one page load.
const (
	rcSites     = 10
	rcCorpora   = 48
	rcWarmSites = 40
	rcArms      = 3
	// rcTraced is how many corpora the traced run re-drives: the first
	// ones, which every timed phase visits.
	rcTraced = 32
	// warmCorpus keys the set-up call's corpus.
	warmCorpus = -1
)

// rcPinned are the Figure 2 artifact digests (SHA-256 of Fig2Result.String,
// first 16 hex digits) of the first corpora at the default seed;
// rcPinnedWarm is the set-up call's.
var rcPinned = [rcTraced]string{
	"43229f758d28e03e", "d4860f0e449f286a", "b5afb8b7c545e2e1", "71f652b6bbca664f",
	"ae2608d411b65282", "f4e3ad40525f06c6", "11f113c53c630709", "09242920b1a95127",
	"b517268e191c5315", "f8bda2720165c9f8", "9875179315819b05", "1fb96d33a4177034",
	"871ad77726a2b998", "fb2b3aeeff873329", "d6ed42c4d614b688", "e8f18787587327d9",
	"c62b49abff686b7b", "d1f58060c396ba03", "8ab02ace3c3e7a06", "7764ce662fd93e23",
	"0a192c034f84394e", "1460390496c47f79", "0320ef54e1aa4e84", "61569db2d4623869",
	"cc56e047e6238d7d", "3e9a4246b55fd6db", "d2498e8748757026", "7186c661bd6022a8",
	"3eef91b55e6fbfff", "35d3a1288577e87d", "bbf96268756bb818", "a97c50bae4eeb6d1",
}

const rcPinnedWarm = "33b0c6290ffe26d1"

type replayCorpus struct {
	workers int
	seed    uint64
	next    int
	// digests holds each corpus's artifact digest from its first Fig2 call
	// in this process; later calls on the same corpus must reproduce it.
	digests map[int]string
}

func newReplayCorpus(workers int) workload {
	return &replayCorpus{workers: workers, digests: map[int]string{}}
}

func (w *replayCorpus) minBatches() int { return rcCorpora }

// config is the Fig2 configuration of corpus k (warmCorpus for set-up).
func (w *replayCorpus) config(k int) experiments.Fig2Config {
	cfg := experiments.DefaultFig2()
	cfg.Sites = rcSites
	cfg.Seed = sim.DeriveSeed(w.seed, "replay-corpus", fmt.Sprint(k))
	if k == warmCorpus {
		cfg.Sites = rcWarmSites
		cfg.Seed = sim.DeriveSeed(w.seed, "replay-corpus", "warm-up")
	}
	cfg.Parallel = w.workers
	return cfg
}

// setup makes the warm-up Fig2 call on a larger corpus; every repeat must
// reproduce the first one's artifact.
func (w *replayCorpus) setup(seed uint64, tr *tracer) (batchResult, error) {
	w.seed, w.next = seed, 0
	sp := tr.start("experiments.Fig2", 0, -1)
	r := experiments.Fig2(w.config(warmCorpus))
	tr.end(sp)
	b := batchResult{ops: rcWarmSites * rcArms}
	w.check(warmCorpus, r, &b)
	return b, nil
}

func (w *replayCorpus) batch() batchResult {
	k := w.next % rcCorpora
	w.next++
	r := experiments.Fig2(w.config(k))
	b := batchResult{ops: rcSites * rcArms}
	w.check(k, r, &b)
	return b
}

// check validates one Fig2 artifact of corpus k. Every arm has one PLT per
// site; adding a shell never makes the median faster; the artifact is the
// pinned one at the default seed and, at any seed, the same as the first
// artifact this process computed for the corpus.
func (w *replayCorpus) check(k int, r experiments.Fig2Result, b *batchResult) {
	sites := w.config(k).Sites
	ops := sites * rcArms
	for _, s := range []*stats.Sample{r.Replay, r.Delay0, r.Link1000} {
		if s.Len() != sites || s.Min() <= 0 {
			b.fail(ops, "corpus %d: arm has %d PLTs (min %.1f ms), want %d positive", k, s.Len(), s.Min(), sites)
			return
		}
	}
	if r.OverheadD < 0 || r.OverheadL < r.OverheadD {
		b.fail(ops, "corpus %d: overheads delay0 %.4f link1000 %.4f out of order", k, r.OverheadD, r.OverheadL)
		return
	}
	d := digest(r.String())
	if pin := pinned(k); w.seed == defaultSeed && pin != "" && d != pin {
		b.fail(ops, "corpus %d: Fig2 digest %s, pinned %s", k, d, pin)
		return
	}
	if prev, ok := w.digests[k]; !ok {
		w.digests[k] = d
	} else if d != prev {
		b.fail(ops, "corpus %d: Fig2 digest %s differs from this run's earlier %s", k, d, prev)
	}
}

// pinned returns corpus k's pinned digest at the default seed; corpora past
// the pinned ones are checked against themselves only.
func pinned(k int) string {
	switch {
	case k == warmCorpus:
		return rcPinnedWarm
	case k < len(rcPinned):
		return rcPinned[k]
	}
	return ""
}

// details reports the pinned corpora's artifact digests; at the default
// seed they are the values rcPinned and rcPinnedWarm hold.
func (w *replayCorpus) details() map[string]any {
	d := map[string]string{"warm-up": w.digests[warmCorpus]}
	for k := 0; k < rcTraced; k++ {
		d[fmt.Sprint(k)] = w.digests[k]
	}
	return map[string]any{"fig2_digests": d}
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// traced re-drives every corpus through the pieces Fig2 composes —
// webgen.GenerateCorpus, webgen.Materialize and experiments.Load per
// site×arm on nproc workers — with a span around each call, and checks
// that the re-driven PLTs reproduce the Fig2 artifact of the timed phase.
// It also builds each site's match index and looks every page request up
// in it, for the matcher's build time and miss count; Fig2 does that inside
// each load, so this extra work is left out of the traced rate.
func (w *replayCorpus) traced(tr *tracer) (batchResult, layerCounters) {
	c := layerCounters{}
	var b batchResult
	base := experiments.DefaultFig2()
	t1000, err := trace.Constant(1_000_000_000, 1000)
	if err != nil {
		panic(err)
	}
	arms := [rcArms]func(*linkTap) []shells.Shell{
		func(*linkTap) []shells.Shell { return nil },
		func(*linkTap) []shells.Shell { return []shells.Shell{shells.NewDelayShell(base.DelayForwarding)} },
		func(tap *linkTap) []shells.Shell {
			return []shells.Shell{shells.NewDelayShell(base.LinkForwarding), tap.wrap(shells.NewLinkShell(t1000, t1000))}
		},
	}
	var mu sync.Mutex // guards c while load workers run
	var op int64
	for k := 0; k < rcTraced; k++ {
		corpusSpan := tr.start("bench.corpus", 0, -1)
		sp := tr.start("webgen.GenerateCorpus", corpusSpan.ID, -1)
		pages := webgen.GenerateCorpus(w.config(k).Seed, scaledCorpus(rcSites))
		tr.end(sp)
		sites := make([]*archive.Site, len(pages))
		for i, p := range pages {
			sp := tr.start("webgen.Materialize", corpusSpan.ID, -1)
			sites[i] = webgen.Materialize(p)
			tr.end(sp)
			c["webgen.materialize_bytes"] += float64(sites[i].BytesTotal())

			t0 := time.Now()
			sp = tr.start("match.New", corpusSpan.ID, -1)
			m := match.New(sites[i])
			tr.end(sp)
			for j := range p.Resources {
				m.LookupOr404(webgen.BuildRequest(&p.Resources[j]))
			}
			b.extra += time.Since(t0)
			_, _, miss := m.Stats()
			c["match.misses"] += float64(miss)
		}

		plts := make([]float64, len(pages)*rcArms)
		var wg sync.WaitGroup
		cells := make(chan int)
		for g := 0; g < w.workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for cell := range cells {
					si, arm := cell/rcArms, cell%rcArms
					var tap linkTap
					sp := tr.start("experiments.Load", corpusSpan.ID, op+int64(cell))
					res := experiments.Load(experiments.LoadSpec{
						Page: pages[si], Site: sites[si],
						DNSLatency: sim.Millisecond, RequestCPU: experiments.DefaultRequestCPU,
						Shells: arms[arm](&tap),
					})
					tr.end(sp)
					plts[cell] = res.PLT.Milliseconds()
					mu.Lock()
					tap.count(c)
					mu.Unlock()
				}
			}()
		}
		for cell := range plts {
			cells <- cell
		}
		close(cells)
		wg.Wait()
		tr.end(corpusSpan)
		op += int64(len(plts))

		b.ops += len(plts)
		if d := digest(fig2Artifact(plts).String()); d != w.digests[k] {
			b.fail(len(plts), "corpus %d: re-driven loads give digest %s, Fig2 gave %s", k, d, w.digests[k])
		}
	}
	c["webgen.generate_s"] = tr.total("webgen.GenerateCorpus")
	c["webgen.materialize_s"] = tr.total("webgen.Materialize")
	c["match.build_s"] = tr.total("match.New")
	return b, c
}

// fig2Artifact assembles a Fig2Result from PLTs in Fig2's matrix order
// (site-major, arms replay/delay0/link1000), as experiments.Fig2 does.
func fig2Artifact(plts []float64) experiments.Fig2Result {
	var acc [rcArms]*stats.Accumulator
	for a := range acc {
		acc[a] = stats.NewAccumulator()
	}
	for i, v := range plts {
		acc[i%rcArms].Add(v)
	}
	r := experiments.Fig2Result{
		Replay:   acc[0].Sample(),
		Delay0:   acc[1].Sample(),
		Link1000: acc[2].Sample(),
	}
	r.OverheadD = stats.RelDiff(r.Delay0.Median(), r.Replay.Median())
	r.OverheadL = stats.RelDiff(r.Link1000.Median(), r.Replay.Median())
	return r
}

// scaledCorpus is the paper's corpus spec scaled to n sites, with the
// single-server count scaled the way the experiment drivers scale it.
func scaledCorpus(n int) webgen.CorpusSpec {
	spec := webgen.PaperCorpus()
	spec.SingleServer = spec.SingleServer * n / spec.Sites
	if spec.SingleServer < 1 && n >= 20 {
		spec.SingleServer = 1
	}
	spec.Sites = n
	return spec
}

// linkTap wraps a LinkShell so the benchmark can read its queue counters
// after a load; it changes nothing about the shell it wraps.
type linkTap struct {
	boxes []*netem.TraceBox
}

type tappedLink struct {
	*shells.LinkShell
	tap *linkTap
}

func (t *linkTap) wrap(s *shells.LinkShell) shells.Shell { return tappedLink{s, t} }

func (l tappedLink) Boxes(loop *sim.Loop) (netem.Box, netem.Box) {
	up, down := l.LinkShell.Boxes(loop)
	for _, b := range []netem.Box{up, down} {
		if tb, ok := b.(*netem.TraceBox); ok {
			l.tap.boxes = append(l.tap.boxes, tb)
		}
	}
	return up, down
}

// count adds the tapped queues' drops and raises the largest backlog seen.
func (t *linkTap) count(c layerCounters) {
	for _, b := range t.boxes {
		qs := b.Queue().QueueStats()
		c["netem.tail_drops"] += float64(qs.TailDrops)
		c["netem.aqm_drops"] += float64(qs.AQMDrops)
		c["netem.max_queue"] = max(c["netem.max_queue"], float64(qs.MaxLen))
	}
}
