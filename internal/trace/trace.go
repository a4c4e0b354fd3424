// Package trace implements Mahimahi's packet-delivery trace format.
//
// A trace is a text file with one integer per line: the time, in
// milliseconds from the start of the emulation, at which an MTU-sized packet
// may be delivered (paper §2, LinkShell: "Each line in the trace is a
// packet-delivery opportunity"). Multiple lines may carry the same
// timestamp, meaning several packets can be delivered in that millisecond.
// When the trace is exhausted, LinkShell loops it, offsetting subsequent
// passes by the trace's duration — this package reproduces that behaviour.
//
// The package also generates traces: constant-rate traces for fixed link
// speeds (e.g. the 1 Mbit/s, 14 Mbits/s, 25 Mbits/s links of Table 2 and the
// 1000 Mbits/s trace of Figure 2) and synthetic cellular traces with
// time-varying delivery rates, mimicking the Verizon/AT&T traces shipped
// with Mahimahi.
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/netem"
	"repro/internal/sim"
)

// Trace is an immutable sequence of packet-delivery opportunities,
// millisecond timestamps in non-decreasing order.
type Trace struct {
	// opportunities[i] is the time of the i-th delivery opportunity within
	// one pass of the trace.
	opportunities []sim.Time
	// period is the duration of one pass; passes repeat every period.
	period sim.Time
	name   string
}

// ErrEmpty is returned when parsing a trace with no delivery opportunities.
var ErrEmpty = errors.New("trace: no delivery opportunities")

// New builds a trace from raw millisecond timestamps. The slice is copied
// and sorted. The period is the last timestamp rounded up to the next
// millisecond (minimum 1 ms), matching Mahimahi's looping rule. Timestamps
// too large for the virtual clock are rejected rather than wrapped.
func New(name string, ms []int64) (*Trace, error) {
	if len(ms) == 0 {
		return nil, ErrEmpty
	}
	opps := make([]sim.Time, len(ms))
	for i, m := range ms {
		if m < 0 {
			return nil, fmt.Errorf("trace: negative timestamp %d at line %d", m, i+1)
		}
		if m > math.MaxInt64/int64(sim.Millisecond) {
			return nil, fmt.Errorf("trace: timestamp %d ms at line %d overflows the virtual clock", m, i+1)
		}
		opps[i] = sim.Time(m) * sim.Millisecond
	}
	sort.Slice(opps, func(i, j int) bool { return opps[i] < opps[j] })
	period := opps[len(opps)-1]
	if period == 0 {
		period = sim.Millisecond
	}
	return &Trace{opportunities: opps, period: period, name: name}, nil
}

// Parse reads a trace in Mahimahi's on-disk format: one non-negative
// integer (milliseconds) per line; blank lines and lines starting with '#'
// are ignored.
func Parse(name string, r io.Reader) (*Trace, error) {
	var ms []int64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace %s: line %d: %w", name, lineNo, err)
		}
		ms = append(ms, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace %s: %w", name, err)
	}
	return New(name, ms)
}

// Format writes the trace in Mahimahi's on-disk format.
func (t *Trace) Format(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, opp := range t.opportunities {
		if _, err := fmt.Fprintf(bw, "%d\n", int64(opp/sim.Millisecond)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Name reports the trace's label (file name or generator description).
func (t *Trace) Name() string { return t.name }

// Len reports the number of opportunities in one pass.
func (t *Trace) Len() int { return len(t.opportunities) }

// Period reports the duration of one pass of the trace.
func (t *Trace) Period() sim.Time { return t.period }

// MeanRate reports the average delivery rate of one pass, in bits/second,
// assuming MTU-sized packets per opportunity.
func (t *Trace) MeanRate() float64 {
	if t.period == 0 {
		return 0
	}
	bits := float64(len(t.opportunities)) * float64(netem.MTU) * 8
	return bits / t.period.Seconds()
}

// Cursor iterates delivery opportunities, looping forever. Cursors are
// cheap; each TraceBox direction holds its own.
type Cursor struct {
	t      *Trace
	idx    int
	offset sim.Time // accumulated period offsets from completed passes
}

// Cursor returns an iterator positioned at the first opportunity.
func (t *Trace) Cursor() *Cursor { return &Cursor{t: t} }

// Next consumes and returns the next delivery opportunity at or after the
// given time. Each call consumes exactly one opportunity, so a trace with k
// lines at the same millisecond yields k same-timestamp opportunities —
// this is how a 1000 Mbit/s trace delivers 83 packets within one
// millisecond. Opportunities earlier than `after` (the link was idle) are
// skipped. The trace loops indefinitely, so Next always succeeds.
func (c *Cursor) Next(after sim.Time) sim.Time {
	for {
		if c.idx >= len(c.t.opportunities) {
			c.idx = 0
			c.offset += c.t.period
		}
		at := c.offset + c.t.opportunities[c.idx]
		c.idx++
		if at >= after {
			return at
		}
		// Fast-forward whole passes when the idle gap is large.
		if c.idx >= len(c.t.opportunities) && c.offset+c.t.period <= after {
			passes := (after - c.offset) / c.t.period
			c.offset += passes * c.t.period
			c.idx = 0
		}
	}
}

// Constant builds a constant-rate trace: delivery opportunities spaced so
// the mean rate is bitsPerSec, covering periodMS milliseconds. This is how
// Mahimahi users create fixed-speed links for mm-link.
func Constant(bitsPerSec int64, periodMS int) (*Trace, error) {
	if bitsPerSec <= 0 {
		return nil, fmt.Errorf("trace: non-positive rate %d", bitsPerSec)
	}
	if periodMS <= 0 {
		return nil, fmt.Errorf("trace: non-positive period %d ms", periodMS)
	}
	// packets per millisecond = rate / (MTU*8 bits) / 1000
	const bitsPerPacket = netem.MTU * 8
	var ms []int64
	// Accumulate fractional packets-per-ms so arbitrary rates are exact on
	// average (e.g. 1 Mbit/s => one packet every 12 ms).
	acc := 0.0
	perMS := float64(bitsPerSec) / bitsPerPacket / 1000.0
	for t := 0; t < periodMS; t++ {
		acc += perMS
		for acc >= 1 {
			ms = append(ms, int64(t))
			acc--
		}
	}
	if len(ms) == 0 {
		// Rate below one packet per period: schedule a single opportunity
		// at the interval implied by the rate.
		interval := int64(float64(bitsPerPacket) / float64(bitsPerSec) * 1000.0)
		if interval < 1 {
			interval = 1
		}
		ms = append(ms, interval)
	}
	return New(fmt.Sprintf("constant-%dbps", bitsPerSec), ms)
}

// Cellular synthesizes a time-varying trace reminiscent of Mahimahi's
// recorded LTE traces: the delivery rate follows a mean-reverting random
// walk between minRate and maxRate bits/second, changing every stepMS
// milliseconds, over periodMS milliseconds total.
func Cellular(rng *sim.Rand, minRate, maxRate int64, stepMS, periodMS int) (*Trace, error) {
	if minRate <= 0 || maxRate < minRate {
		return nil, fmt.Errorf("trace: invalid rate range [%d,%d]", minRate, maxRate)
	}
	if stepMS <= 0 || periodMS < stepMS {
		return nil, fmt.Errorf("trace: invalid step/period %d/%d", stepMS, periodMS)
	}
	const bitsPerPacket = netem.MTU * 8
	mid := float64(minRate+maxRate) / 2
	rate := mid
	span := float64(maxRate - minRate)
	var ms []int64
	acc := 0.0
	for start := 0; start < periodMS; start += stepMS {
		// Mean-reverting step with Gaussian innovation.
		rate += 0.3*(mid-rate) + 0.25*span*rng.NormFloat64()
		if rate < float64(minRate) {
			rate = float64(minRate)
		}
		if rate > float64(maxRate) {
			rate = float64(maxRate)
		}
		perMS := rate / bitsPerPacket / 1000.0
		end := start + stepMS
		if end > periodMS {
			end = periodMS
		}
		for t := start; t < end; t++ {
			acc += perMS
			for acc >= 1 {
				ms = append(ms, int64(t))
				acc--
			}
		}
	}
	if len(ms) == 0 {
		ms = append(ms, int64(periodMS))
	}
	return New("cellular", ms)
}
