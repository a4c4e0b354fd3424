package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"repro/internal/sim"
)

// perLayer lists the -trace 1 metrics. Every workload reports all of them;
// a layer a workload does not use reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"bench.trace_overhead", "ratio"},
		{"bench.fail_ratio", "ratio"},
		{"bench.attributed_share", "ratio"},
		{"bench.self_s", "s"},
		{"webgen.generate_s", "s"},
		{"webgen.materialize_s", "s"},
		{"webgen.materialize_bytes", "bytes"},
		{"match.build_s", "s"},
		{"match.misses", "count"},
		{"core.record_ms_per_op", "ms"},
		{"core.replay_ms_per_op", "ms"},
		{"archive.encode_ms_per_op", "ms"},
		{"archive.decode_ms_per_op", "ms"},
		{"sim.events_per_op", "count"},
		{"sim.max_pending", "count"},
		{"sim.bucket_hit_ratio", "ratio"},
		{"netem.tail_drops", "count"},
		{"netem.aqm_drops", "count"},
		{"netem.max_queue", "count"},
		{"engine.run_s", "s"},
		{"engine.cell_s_max", "s"},
		{"engine.utilization", "ratio"},
		{"engine.steals", "count"},
		{"engine.event_skew", "ratio"},
		{"process.peak_rss_mb", "MB"},
		{"runtime.alloc_bytes_per_op", "bytes"},
		{"runtime.mallocs_per_op", "count"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_self_s", "s"},
		{"runtime.maps_self_s", "s"},
		{"runtime.other_self_s", "s"},
		{"stdlib.self_s", "s"},
	}
	for _, m := range modules {
		defs = append(defs, metricDef{m + ".self_s", "s"})
	}
	for _, m := range eventLayers {
		defs = append(defs, metricDef{m + ".ns_per_event", "ns"})
	}
	return defs
}()

// eventCounter is implemented by workloads whose results count the
// simulator events their traced work fires; tracedRun checks the scheduler
// stats against that count.
type eventCounter interface {
	tracedEvents() uint64
}

// eventLayers are the data-plane layers whose cost is also given per
// simulator event.
var eventLayers = []string{"sim", "tcpsim", "netem", "nsim"}

// tracedRun is the per-layer run. After one set-up it runs the timed phase
// untraced for the requested seconds (its rate is the base of
// bench.trace_overhead; its allocation and GC deltas give runtime.*), then
// a fixed amount of traced work with spans, a CPU profile and the
// simulator's scheduler counters on.
//
// Scheduler stats are on from before set-up. Loops are reused (engine
// shards, pooled page-load scratch state) and their counters grow across
// resets; a loop hands the sink only its growth since its previous flush,
// and it moves that baseline only while stats are on. Switching them on
// just before the traced work would charge each reused loop's whole history
// to it, so the sink is instead zeroed then.
func tracedRun(w workload, run runInfo) (result, map[string]any, error) {
	sim.EnableSchedStats(true)
	defer sim.EnableSchedStats(false)
	tr := newTracer()
	warm, err := w.setup(run.seed, tr)
	if err != nil {
		return result{}, nil, err
	}
	ph := timedPhase(w, run.seconds)

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, nil, err
	}
	sim.ResetSchedStats()
	t0 := time.Now()
	tb, counters := w.traced(tr)
	tracedWall := time.Since(t0)
	sched, _ := sim.SchedStatsSnapshot()
	pprof.StopCPUProfile()
	if ec, ok := w.(eventCounter); ok {
		if n := ec.tracedEvents(); n != sched.Fired {
			tb.fail(tb.ops-tb.failed, "scheduler stats count %d events fired in the traced work, the workload's results %d", sched.Fired, n)
		}
	}

	attr, err := attribute(prof.Bytes())
	if err != nil {
		return result{}, nil, err
	}

	res := newResult(warm.ops+ph.ops+tb.ops, warm.failed+ph.failed+tb.failed)
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{0, m.unit}
	}
	set := func(name string, v float64) {
		m, ok := res.Metrics[name]
		if !ok {
			panic("perfbench: unlisted per-layer metric " + name)
		}
		m.Value = v
		res.Metrics[name] = m
	}
	for name, v := range counters {
		set(name, v)
	}
	tracedRate := float64(tb.ops-tb.failed) / (tracedWall - tb.extra).Seconds()
	set("bench.trace_overhead", tracedRate/ph.rate())
	set("bench.fail_ratio", float64(res.Failed)/float64(res.Attempted))
	set("bench.attributed_share", attr.attributedShare())
	set("bench.self_s", attr.seconds[bucketBench])
	set("runtime.gc_self_s", attr.seconds[bucketGC])
	set("runtime.maps_self_s", attr.seconds[bucketMaps])
	set("runtime.other_self_s", attr.seconds[bucketRuntime])
	set("stdlib.self_s", attr.seconds[bucketStdlib])
	for _, m := range modules {
		set(m+".self_s", attr.seconds[m])
	}
	if sched.Fired > 0 {
		for _, m := range eventLayers {
			set(m+".ns_per_event", attr.seconds[m]*1e9/float64(sched.Fired))
		}
	}
	if tb.ops > 0 {
		set("sim.events_per_op", float64(sched.Fired)/float64(tb.ops))
	}
	set("sim.max_pending", float64(sched.MaxPending))
	if n := sched.BucketHit + sched.BucketNew; n > 0 {
		set("sim.bucket_hit_ratio", float64(sched.BucketHit)/float64(n))
	}
	if ph.ops > 0 {
		set("runtime.alloc_bytes_per_op", float64(ph.mem.allocBytes)/float64(ph.ops))
		set("runtime.mallocs_per_op", float64(ph.mem.mallocs)/float64(ph.ops))
	}
	set("runtime.gc_cycles", float64(ph.mem.gcCycles))
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, nil, err
	}
	set("process.peak_rss_mb", rss)

	base := run.base()
	if err := tr.write(base + ".spans.jsonl"); err != nil {
		return result{}, nil, err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return result{}, nil, err
	}
	if err := os.WriteFile(base+".layers.txt", []byte(attr.table()), 0o644); err != nil {
		return result{}, nil, err
	}
	fmt.Print(attr.table())
	details := map[string]any{
		"untraced_ops":       ph.ops,
		"untraced_elapsed_s": ph.elapsed.Seconds(),
		"untraced_ops_per_s": ph.rate(),
		"traced_ops":         tb.ops,
		"traced_elapsed_s":   tracedWall.Seconds(),
		"traced_extra_s":     tb.extra.Seconds(),
		"traced_ops_per_s":   tracedRate,
		"sched":              sched,
		"profile_samples":    attr.total,
		"spans":              tr.summary(),
		"files":              []string{base + ".spans.jsonl", base + ".cpu.pprof", base + ".layers.txt"},
		"problems":           appendProblems(appendProblems(warm.problems, ph.problems), tb.problems),
	}
	return res, details, nil
}
