package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/shells"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/webgen"
)

// record-replay is one closed-loop client doing the full Mahimahi round
// trip on each site of a generated corpus in turn: record the page through
// RecordShell's man-in-the-middle proxy against the simulated live web,
// encode every exchange into the archive format and decode it back, then
// replay it under DelayShell 30 ms + LinkShell 14 Mbit/s, as in the
// quickstart. Op = one round trip.
const (
	rrSites      = 1000
	rrTracedOps  = 120
	rrDelay      = 30 * sim.Millisecond
	rrLinkBPS    = 14_000_000
	rrLinkPeriod = 2000
)

type recordReplay struct {
	pages []*webgen.Page
	link  *trace.Trace
	next  int
}

func newRecordReplay(int) workload { return &recordReplay{} }

func (w *recordReplay) minBatches() int { return 1 }

// setup generates the corpus.
func (w *recordReplay) setup(seed uint64, tr *tracer) (batchResult, error) {
	sp := tr.start("webgen.GenerateCorpus", 0, -1)
	w.pages = webgen.GenerateCorpus(sim.DeriveSeed(seed, "record-replay"), scaledCorpus(rrSites))
	tr.end(sp)
	link, err := trace.Constant(rrLinkBPS, rrLinkPeriod)
	if err != nil {
		return batchResult{}, err
	}
	w.link, w.next = link, 0
	return batchResult{}, nil
}

func (w *recordReplay) batch() batchResult {
	b := batchResult{ops: 1}
	w.roundTrip(nil, -1, layerCounters{}, &b)
	return b
}

// roundTrip records, round-trips through the archive format and replays the
// next corpus page, checking each stage. op < 0 means untraced.
func (w *recordReplay) roundTrip(tr *tracer, op int64, c layerCounters, b *batchResult) {
	page := w.pages[w.next%len(w.pages)]
	w.next++
	opSpan := tr.start("bench.round_trip", 0, op)
	defer tr.end(opSpan)

	sp := tr.start("core.NewRecord", opSpan.ID, op)
	rec, err := core.NewSession().NewRecord(core.RecordConfig{Page: page})
	if err != nil {
		tr.end(sp)
		b.fail(1, "%s: NewRecord: %v", page.Name, err)
		return
	}
	tr.end(sp)
	sp = tr.start("core.Record", opSpan.ID, op)
	site, _ := rec.Record()
	tr.end(sp)
	if err := recordedAll(page, site); err != nil {
		b.fail(1, "%s: %v", page.Name, err)
		return
	}

	decoded := &archive.Site{Name: site.Name, Exchanges: make([]*archive.Exchange, 0, len(site.Exchanges))}
	var enc, reenc bytes.Buffer
	for _, e := range site.Exchanges {
		enc.Reset()
		sp := tr.start("archive.WriteExchange", opSpan.ID, op)
		err := archive.WriteExchange(&enc, e)
		tr.end(sp)
		if err != nil {
			b.fail(1, "%s: WriteExchange: %v", page.Name, err)
			return
		}
		sp = tr.start("archive.ReadExchange", opSpan.ID, op)
		d, err := archive.ReadExchange(bytes.NewReader(enc.Bytes()))
		tr.end(sp)
		if err != nil {
			b.fail(1, "%s: ReadExchange: %v", page.Name, err)
			return
		}
		reenc.Reset()
		if err := archive.WriteExchange(&reenc, d); err != nil || !bytes.Equal(enc.Bytes(), reenc.Bytes()) {
			b.fail(1, "%s: exchange %s does not re-encode to the same bytes (%v)", page.Name, e.Request.Target, err)
			return
		}
		decoded.Exchanges = append(decoded.Exchanges, d)
	}

	if tr != nil {
		t0 := time.Now()
		sp := tr.start("match.New", opSpan.ID, op)
		match.New(decoded)
		tr.end(sp)
		b.extra += time.Since(t0)
	}

	var tap linkTap
	sp = tr.start("core.NewReplay", opSpan.ID, op)
	rs, err := core.NewSession().NewReplay(core.ReplayConfig{
		Page: page, Site: decoded, DNSLatency: sim.Millisecond,
		Shells: []shells.Shell{shells.NewDelayShell(rrDelay), tap.wrap(shells.NewLinkShell(w.link, w.link))},
	})
	if err != nil {
		tr.end(sp)
		b.fail(1, "%s: NewReplay: %v", page.Name, err)
		return
	}
	tr.end(sp)
	sp = tr.start("core.LoadPage", opSpan.ID, op)
	res := rs.LoadPage()
	tr.end(sp)
	if res.Errors != 0 || res.Failed != 0 || res.Resources != len(page.Resources) {
		b.fail(1, "%s: replay got %d/%d resources, %d errors, %d failed",
			page.Name, res.Resources, len(page.Resources), res.Errors, res.Failed)
	}
	tap.count(c)
	_, _, miss := rs.Replay.Matcher.Stats()
	c["match.misses"] += float64(miss)
}

// recordedAll checks that the recorded site holds exactly one exchange per
// page resource, keyed by scheme, host and request target.
func recordedAll(page *webgen.Page, site *archive.Site) error {
	if len(site.Exchanges) != len(page.Resources) {
		return fmt.Errorf("recorded %d exchanges for %d resources", len(site.Exchanges), len(page.Resources))
	}
	seen := make(map[string]bool, len(site.Exchanges))
	for _, e := range site.Exchanges {
		seen[e.Scheme+"://"+e.Request.Header.Get("Host")+e.Request.Target] = true
	}
	for i := range page.Resources {
		if r := &page.Resources[i]; !seen[r.URL()] {
			return fmt.Errorf("resource %s was not recorded", r.URL())
		}
	}
	return nil
}

// traced runs rrTracedOps round trips with spans. Each also builds a match
// index of the decoded site once more on its own, to time the build that
// NewReplay does inside; that extra build is left out of the traced rate.
func (w *recordReplay) traced(tr *tracer) (batchResult, layerCounters) {
	c := layerCounters{}
	var b batchResult
	for op := int64(0); op < rrTracedOps; op++ {
		b.ops++
		w.roundTrip(tr, op, c, &b)
	}
	n := float64(b.ops)
	c["core.record_ms_per_op"] = 1e3 * (tr.total("core.NewRecord") + tr.total("core.Record")) / n
	c["core.replay_ms_per_op"] = 1e3 * (tr.total("core.NewReplay") + tr.total("core.LoadPage")) / n
	c["match.build_s"] = tr.total("match.New")
	c["archive.encode_ms_per_op"] = 1e3 * tr.total("archive.WriteExchange") / n
	c["archive.decode_ms_per_op"] = 1e3 * tr.total("archive.ReadExchange") / n
	c["webgen.generate_s"] = tr.total("webgen.GenerateCorpus")
	return b, c
}
