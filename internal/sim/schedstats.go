package sim

import "sync/atomic"

// SchedCounters are per-loop event-queue occupancy and scheduler counters,
// maintained unconditionally (they are a handful of integer updates on
// paths that already touch the same cache lines). BucketHit/BucketNew give
// the workload's deadline clustering — the fraction of future events that
// share their deadline with the event filed just before them in the same
// wheel slot — while NowFast counts the zero-delay fast path.
type SchedCounters struct {
	// Scheduled counts events entered into the queue (including later
	// canceled ones); Fired counts events that executed.
	Scheduled uint64
	Fired     uint64
	// NowFast counts events taking the same-instant FIFO fast path.
	NowFast uint64
	// BucketHit counts wheel inserts (schedules and Timer rearms) that
	// joined an existing same-deadline run: the tail of the target wheel
	// slot already held an event at the same time. BucketNew counts the
	// wheel inserts that did not. Both cost O(1).
	BucketHit uint64
	BucketNew uint64
	// MaxPending is the event queue's high-water mark.
	MaxPending int
}

// Counters returns a snapshot of the loop's scheduler counters.
func (l *Loop) Counters() SchedCounters {
	c := l.counters
	c.Fired = l.fired
	return c
}

// statsSink aggregates counters across every loop in the process when
// enabled (mm-bench -schedstats). Experiments create one loop per page
// load across many workers, so the sink is atomic; loops flush deltas when
// a Run/RunUntil/RunWhile call returns.
var statsSink struct {
	enabled    atomic.Bool
	loops      atomic.Uint64 // flush calls ≈ loop drains
	scheduled  atomic.Uint64
	fired      atomic.Uint64
	nowFast    atomic.Uint64
	bucketHit  atomic.Uint64
	bucketNew  atomic.Uint64
	maxPending atomic.Int64
}

// EnableSchedStats turns the process-wide scheduler-stats sink on or off.
func EnableSchedStats(on bool) { statsSink.enabled.Store(on) }

// SchedStatsEnabled reports whether the sink is collecting.
func SchedStatsEnabled() bool { return statsSink.enabled.Load() }

// SchedStatsSnapshot returns the aggregated counters and the number of
// loop-drain flushes that contributed to them.
func SchedStatsSnapshot() (SchedCounters, uint64) {
	return SchedCounters{
		Scheduled:  statsSink.scheduled.Load(),
		Fired:      statsSink.fired.Load(),
		NowFast:    statsSink.nowFast.Load(),
		BucketHit:  statsSink.bucketHit.Load(),
		BucketNew:  statsSink.bucketNew.Load(),
		MaxPending: int(statsSink.maxPending.Load()),
	}, statsSink.loops.Load()
}

// ResetSchedStats zeroes the sink.
func ResetSchedStats() {
	statsSink.loops.Store(0)
	statsSink.scheduled.Store(0)
	statsSink.fired.Store(0)
	statsSink.nowFast.Store(0)
	statsSink.bucketHit.Store(0)
	statsSink.bucketNew.Store(0)
	statsSink.maxPending.Store(0)
}

func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// flushStats pushes the loop's counter growth since the previous flush into
// the global sink. Called when a run method returns, so repeated RunUntil
// calls never double-count.
func (l *Loop) flushStats() {
	if !statsSink.enabled.Load() {
		return
	}
	c := l.Counters()
	statsSink.loops.Add(1)
	statsSink.scheduled.Add(c.Scheduled - l.flushed.Scheduled)
	statsSink.fired.Add(c.Fired - l.flushed.Fired)
	statsSink.nowFast.Add(c.NowFast - l.flushed.NowFast)
	statsSink.bucketHit.Add(c.BucketHit - l.flushed.BucketHit)
	statsSink.bucketNew.Add(c.BucketNew - l.flushed.BucketNew)
	atomicMax(&statsSink.maxPending, int64(c.MaxPending))
	l.flushed = c
}
