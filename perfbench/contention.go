package main

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// contention-10k runs one engine.Job of four 10k-flow contention cells on
// engine.New(nproc), one cell per queue discipline, so cell costs differ
// and the engine's LPT placement and cell stealing matter. The cell spec is
// BenchmarkContention/flows10000's (400 Mbit/s, web:bulk:rpc 8:1:1); cell
// seeds derive from the run seed and the cell label. Op = one completed
// flow.
const (
	ctFlows      = 10000
	ctTracedJobs = 2
)

var ctQdiscs = []struct {
	label string
	spec  netem.QdiscSpec
}{
	{"fq_codel", netem.QdiscSpec{Kind: netem.QdiscFQCoDel, Packets: 600, Flows: 256}},
	{"droptail-deep", netem.QdiscSpec{Kind: netem.QdiscDropTail, Packets: 4000}},
	{"codel", netem.QdiscSpec{Kind: netem.QdiscCoDel, Packets: 600}},
	{"pie", netem.QdiscSpec{Kind: netem.QdiscPIE, Packets: 600}},
}

type contention struct {
	workers int
	seed    uint64
	link    *trace.Trace
	eng     *engine.Engine
	labels  []string
	// ref holds each cell's result from its first run in this process;
	// every later run of the cell must reproduce it exactly.
	ref map[string]string
	// cellDur is the host time of each cell of the last job.
	cellDur []time.Duration
	// events counts the simulator events the traced jobs' cells fired.
	events uint64
}

func newContention(workers int) workload { return &contention{workers: workers} }

func (w *contention) minBatches() int { return 2 }

func (w *contention) spec(cell int) engine.ContentionSpec {
	return engine.ContentionSpec{
		Seed:          sim.DeriveSeed(w.seed, w.labels[cell]),
		Flows:         ctFlows,
		Mix:           engine.Mix{Web: 8, Bulk: 1, RPC: 1},
		Qdisc:         ctQdiscs[cell].spec,
		Up:            w.link,
		Down:          w.link,
		ArrivalWindow: 500 * sim.Millisecond,
		WebTransfers:  1,
		WebThink:      10 * sim.Millisecond,
		WebMaxBytes:   32 << 10,
		BulkBytes:     64 << 10,
		RPCCalls:      2,
		RPCGap:        10 * sim.Millisecond,
	}
}

// setup builds a fresh engine and warms every shard's pools with one cell
// each: the first nproc cells of the job, whose results become the
// references later runs are checked against.
func (w *contention) setup(seed uint64, tr *tracer) (batchResult, error) {
	link, err := trace.Constant(400_000_000, 1000)
	if err != nil {
		return batchResult{}, err
	}
	w.seed, w.link = seed, link
	w.labels = w.labels[:0]
	for _, q := range ctQdiscs {
		w.labels = append(w.labels, "contention-10k/"+q.label)
	}
	w.ref = map[string]string{}
	sp := tr.start("engine.New", 0, -1)
	w.eng = engine.New(w.workers)
	tr.end(sp)
	var b batchResult
	w.runJob(tr, w.labels[:min(w.workers, len(ctQdiscs))], &b)
	return b, nil
}

func (w *contention) batch() batchResult {
	var b batchResult
	w.runJob(nil, w.labels, &b)
	return b
}

// runJob runs cells (a prefix of w.labels) as one engine job and checks
// every cell and, afterwards, every shard's pool ledgers.
func (w *contention) runJob(tr *tracer, cells []string, b *batchResult) []engine.ContentionResult {
	w.cellDur = make([]time.Duration, len(cells))
	jobSpan := tr.start("engine.Run", 0, -1)
	out := w.eng.Run(engine.Job{Cells: cells, Run: func(sh *engine.Shard, cell int, label string) any {
		sp := tr.start("engine.RunContention", jobSpan.ID, int64(cell))
		t0 := time.Now()
		r := engine.RunContention(sh, w.spec(cell))
		w.cellDur[cell] = time.Since(t0)
		tr.end(sp)
		return r
	}})
	tr.end(jobSpan)
	results := make([]engine.ContentionResult, len(out))
	for i, v := range out {
		r := v.(engine.ContentionResult)
		results[i] = r
		b.ops += r.Flows
		if r.Flows != ctFlows || r.FlowsDone != r.Flows || r.Errors != 0 {
			b.fail(r.Flows, "%s: %d/%d flows done, %d errors", cells[i], r.FlowsDone, r.Flows, r.Errors)
			continue
		}
		got := fmt.Sprintf("%+v", r)
		if ref, ok := w.ref[cells[i]]; !ok {
			w.ref[cells[i]] = got
		} else if got != ref {
			b.fail(r.Flows, "%s: result differs from this run's earlier result", cells[i])
		}
	}
	for s := 0; s < w.eng.NumShards(); s++ {
		sh := w.eng.Shard(s)
		segs, pkts, dgs, conns := sh.Segments().Outstanding(), sh.Pools().OutstandingPackets(),
			sh.Pools().OutstandingDatagrams(), sh.Conns().Outstanding()
		if segs != 0 || pkts != 0 || dgs != 0 || conns != 0 {
			b.fail(b.ops-b.failed, "shard %d: outstanding after job: %d segments, %d packets, %d datagrams, %d conns",
				s, segs, pkts, dgs, conns)
			break
		}
	}
	return results
}

// traced runs ctTracedJobs jobs with spans and reports queue counters from
// the cell results and the engine's placement of the last job.
func (w *contention) traced(tr *tracer) (batchResult, layerCounters) {
	c := layerCounters{}
	var b batchResult
	var cellMax, run time.Duration
	w.events = 0
	for j := 0; j < ctTracedJobs; j++ {
		t0 := time.Now()
		results := w.runJob(tr, w.labels, &b)
		run += time.Since(t0)
		for _, d := range w.cellDur {
			cellMax = max(cellMax, d)
		}
		for _, r := range results {
			w.events += r.Events
			c["netem.tail_drops"] += float64(r.TailDrops)
			c["netem.aqm_drops"] += float64(r.AQMDrops)
			c["netem.max_queue"] = max(c["netem.max_queue"], float64(r.MaxQueue))
		}
	}
	p := w.eng.Placement()
	c["engine.run_s"] = run.Seconds() / ctTracedJobs
	c["engine.cell_s_max"] = cellMax.Seconds()
	c["engine.utilization"] = p.Utilization()
	c["engine.steals"] = float64(p.Steals())
	c["engine.event_skew"] = p.EventSkew()
	return b, c
}

func (w *contention) tracedEvents() uint64 { return w.events }
