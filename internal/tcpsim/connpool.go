package tcpsim

import "repro/internal/nsim"

// ConnPool is a free list of recycled Conns. A fresh connection is the last
// per-flow allocation spike on the many-flow hot path: segments and
// datagrams already recycle through their pools, but every Dial/accept used
// to allocate a Conn, its reassembly buffer, and its retransmit queue.
// Workload drivers that open thousands of short connections (the contention
// engine's web and RPC classes) instead hand each closed connection back
// via Stack.Recycle, and newConn reuses it — queues, buffers and all — so
// steady-state connection churn allocates nothing.
//
// Like SegmentPool and nsim.PoolSet, a ConnPool is single-goroutine: it may
// be threaded through many sequential simulations and shared by stacks on
// the same loop, but must never be shared across concurrently running loops.
type ConnPool struct {
	// free is a min-heap on Conn.serial, kept beside each entry so sifting
	// reads only this array: a Dial or accept always reuses the oldest
	// parked connection. In a deterministic workload that makes
	// every run hand the same connection to the same flow — the first run
	// allocates connections in serial order, and later runs find exactly
	// the free set the first run had, plus connections it had yet to make,
	// which all sort above it — so the queue and buffer capacities
	// each connection grew once fit it in every later run, and a warmed
	// pool allocates nothing however many runs follow. (A LIFO list would
	// deal connections to different flows each run, and their capacities
	// would keep ratcheting up over many runs.)
	free []parkedConn
	made uint32 // serials handed out
	// gets counts every newConn on a pooled stack (whether served from the
	// free list or freshly allocated); puts counts every Recycle. The
	// difference is the number of pool-managed connections currently live.
	gets, puts uint64
}

// parkedConn is one entry of a ConnPool's free heap.
type parkedConn struct {
	serial uint32
	c      *Conn
}

// NewConnPool returns an empty connection free list.
func NewConnPool() *ConnPool { return &ConnPool{} }

// Outstanding reports pool-managed connections handed out and not yet
// recycled. Unlike SegmentPool.Outstanding it is not a leak detector on its
// own — recycling is opt-in per connection — but a driver that recycles
// every connection it opens can assert it returns to zero at quiescence.
func (p *ConnPool) Outstanding() int64 { return int64(p.gets) - int64(p.puts) }

// SetConnPool attaches a connection free list to the stack. Connections are
// only returned to it explicitly (Stack.Recycle); stacks without a pool
// behave exactly as before.
func (s *Stack) SetConnPool(p *ConnPool) { s.connPool = p }

// takePooledConn pops a recycled connection, counting the request either
// way so the ledger covers fresh allocations too. Returns nil when no pool
// is attached or the free list is empty.
func (s *Stack) takePooledConn() *Conn {
	p := s.connPool
	if p == nil {
		return nil
	}
	p.gets++
	n := len(p.free) - 1
	if n < 0 {
		return nil
	}
	c := p.free[0].c
	p.free[0] = p.free[n]
	p.free[n] = parkedConn{}
	p.free = p.free[:n]
	// Sift the moved tail entry down to restore heap order.
	h, i := p.free, 0
	for {
		m := i
		if l := 2*i + 1; l < n && h[l].serial < h[m].serial {
			m = l
		}
		if r := 2*i + 2; r < n && h[r].serial < h[m].serial {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return c
}

// park pushes a recycled connection onto the free heap.
func (p *ConnPool) park(c *Conn) {
	p.free = append(p.free, parkedConn{c.serial, c})
	h, i := p.free, len(p.free)-1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].serial <= h[i].serial {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// Recycle returns a fully closed connection to the stack's pool for reuse
// by a later Dial or accept. It is safe to call from the connection's
// OnClose callback: close notification is delivered from a scheduled event,
// after any in-progress packet train has flushed its deferred timer state.
// Calls on a pool-less stack, on a connection that is not closed, or on one
// already recycled are no-ops, so callers need no conditional logic.
func (s *Stack) Recycle(c *Conn) {
	p := s.connPool
	if p == nil || c.state != StateClosed || c.pooledFree || c.rtoDirty {
		return
	}
	// Drop every reference the idle connection would otherwise pin. State
	// scalars are rebuilt by reset on reuse; pointers are cleared now so a
	// parked connection costs only its own struct plus empty containers.
	for i := range c.sendq {
		c.sendq[i] = nil
	}
	c.sendq = c.sendq[:0]
	c.sendHead = 0
	c.sendOff = 0
	c.sendLen = 0
	c.acceptFn = nil
	c.onEstablished = nil
	c.onData = nil
	c.onDataC = nil
	c.onClose = nil
	c.onCloseC = nil
	c.closedErr = nil
	c.pooledFree = true
	p.puts++
	p.park(c)
}

// reset rebuilds a recycled connection into the state newConn would have
// produced, reusing its reassembly map, queue capacities, and scratch
// buffers. Every field of Conn is either re-initialized here or was cleared
// by teardown/Recycle; keep this in sync with the struct definition.
func (c *Conn) reset(s *Stack, local, remote nsim.AddrPort, server bool) {
	prev := c.stack
	c.stack = s
	c.cc = s.cc
	c.local = local
	c.remote = remote
	c.server = server
	c.flow = s.ns.Network().NextFlow()
	if server {
		c.state = StateSynRcvd
	} else {
		c.state = StateSynSent
	}

	c.sndUna = 0
	c.sndNxt = 0
	// sendq was scrubbed by Recycle; rtxq was emptied by teardown.
	c.cwnd = InitialWindow
	c.ssthresh = ReceiveWindow
	c.dupAcks = 0
	c.cubic = cubicState{}
	c.pipeBytes = 0
	c.holeIdx = 0
	c.inRecovery = false
	c.recoverSeq = 0
	c.recoveryStart = 0
	c.highSack = 0
	c.appClosed = false
	c.finSent = false
	c.ectOK = false
	c.ecnRecover = 0
	c.cwrPending = false

	c.rcvNxt = 0
	c.ceEcho = false
	// ooo was emptied (in deterministic order) by teardown; its backing
	// array and sackList's are the reuse payoff.
	c.sackList = c.sackList[:0]
	c.peerFin = false
	c.peerFinSeq = 0

	c.srtt = 0
	c.rttvar = 0
	c.rto = initialRTO
	c.rtoRetries = 0
	// The timer survives recycling: it is bound to this connection's onRTO
	// and sim.Timer handles are generation-checked, so a handle left over
	// from before a Loop.Reset is inert and Reset re-arms it freshly. Only a
	// move to a different loop needs a rebind.
	if prev == nil || prev.loop != s.loop {
		c.rtoTimer = s.loop.NewTimer(c.onRTO)
	}

	c.stats = Stats{}
	c.closedErr = nil
	c.closeNotified = false
	c.pooledFree = false
}
