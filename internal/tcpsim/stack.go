package tcpsim

import (
	"errors"
	"fmt"

	"repro/internal/nsim"
	"repro/internal/sim"
)

// fourTuple identifies a connection from the stack's perspective.
type fourTuple struct {
	local, remote nsim.AddrPort
}

// Stack is the per-namespace TCP engine: it demultiplexes incoming
// datagrams to connections and listeners. One namespace has at most one
// Stack.
type Stack struct {
	ns   *nsim.Namespace
	loop *sim.Loop
	cc   CongestionAlgorithm
	ecn  bool
	// conns finds an accepted connection by four-tuple: SYNs, segments
	// sent before the handshake taught the peer this side's index, and
	// stale segments. (A dialed connection owns its ephemeral socket,
	// whose handler is the connection itself.) Established traffic goes
	// through tab instead: connection c sits at tab[c.id-1], and its peer
	// stamps c.id into every segment's DstConn (see Segment.SrcConn), so
	// demux is an index plus a four-tuple check that proves the hit is the
	// connection a four-tuple lookup would have found.
	conns     map[fourTuple]*Conn
	tab       []*Conn
	tabFree   []uint32
	listeners map[nsim.AddrPort]func(*Conn)
	boundPort map[uint16]bool // listener ports already bound on the namespace
	// segs recycles Segments. The whole simulation is single-goroutine per
	// loop, so the free list needs no synchronization; a pool shared
	// between the simulation's stacks (NewStackPool) lets a segment
	// allocated by one endpoint be reused by the other.
	segs *SegmentPool
	// rxBatch is nonzero while a packet train is being delivered to this
	// stack's namespace (see Namespace.SetRxBatchHooks). During a train,
	// per-segment retransmission-timer rearms are deferred: each touched
	// connection is recorded once in rtoDirty and its timer is brought to
	// its final state in one pass when the train ends — the ACK-clock
	// analogue of a delayed-ACK aggregation, with identical timer deadlines
	// (the whole train arrives at one instant and the final RTO estimate is
	// what an undeferred rearm sequence would also have left armed).
	rxBatch  int
	rtoDirty []*Conn
	// connPool, when set, recycles fully closed connections back through
	// newConn (see ConnPool); nil keeps the allocate-per-connection behavior.
	connPool *ConnPool
	// rtoRetryCap overrides maxRTORetries for connections on this stack;
	// 0 keeps the default. Raised when the workload must survive scripted
	// outages longer than the default cap's backoff ladder.
	rtoRetryCap int
}

// SegmentPool is a free list of recycled Segments. Like nsim.PoolSet it
// may be threaded through many sequential simulations (it must never be
// shared across concurrently running loops), so warmup is paid once per
// worker rather than once per simulation.
type SegmentPool struct {
	free []*Segment
	// sacks recycles SACK block arrays, all of capacity maxSackBlocks. They
	// are pooled apart from segments (only ACKs carry them), so a warmed
	// pool holds as many as were ever in flight at once and no segment
	// keeps a capacity its next use may outgrow.
	sacks [][]SackRange
	// gets and puts count pool traffic for leak accounting: every
	// newSegment is balanced by exactly one final releaseSegment once all
	// references drop, so at quiescence (all connections closed, nothing
	// in flight) they must balance.
	gets, puts uint64
}

// Outstanding reports live pool segments (allocated and not yet recycled).
// Zero at quiescence means no drop or teardown path leaked a reference.
func (p *SegmentPool) Outstanding() int64 { return int64(p.gets) - int64(p.puts) }

// getSack returns an empty SACK block array of capacity maxSackBlocks.
func (p *SegmentPool) getSack() []SackRange {
	if n := len(p.sacks); n > 0 {
		b := p.sacks[n-1]
		p.sacks = p.sacks[:n-1]
		return b
	}
	return make([]SackRange, 0, maxSackBlocks)
}

// newSegment returns a zeroed segment with one reference (the creator's).
func (s *Stack) newSegment() *Segment {
	pool := s.segs
	pool.gets++
	if n := len(pool.free); n > 0 {
		seg := pool.free[n-1]
		pool.free[n-1] = nil
		pool.free = pool.free[:n-1]
		seg.refs = 1
		return seg
	}
	return &Segment{refs: 1, pooled: true, pool: pool}
}

// retain adds a reference to a pooled segment (e.g. a wire copy entering
// the network, or the receiver buffering it out of order).
func (s *Stack) retain(seg *Segment) {
	if seg.pooled {
		seg.refs++
	}
}

// release drops one reference; the last release recycles the segment into
// its origin pool. Callers must be done reading the segment before
// releasing: recycling hands the Sack array back to the pool for a later
// ACK to reuse. Hand-built (non-pooled) segments are
// ignored.
func (s *Stack) release(seg *Segment) { releaseSegment(seg) }

// releaseSegment is Stack.release without a stack in scope: the network's
// drop-release hook uses it to return the wire copy's reference when a
// queue discipline (or any other network drop path) discards a segment in
// flight.
func releaseSegment(seg *Segment) {
	if !seg.pooled {
		return
	}
	if seg.refs--; seg.refs > 0 {
		return
	}
	seg.Flags = 0
	seg.Seq = 0
	seg.Ack = 0
	// Data aliases the sending connection's buffer (see Conn.pump), whose
	// other segments may still be in flight: drop it rather than reuse it.
	seg.Data = nil
	if cap(seg.Sack) == maxSackBlocks {
		seg.pool.sacks = append(seg.pool.sacks, seg.Sack[:0])
	}
	seg.Sack = nil
	seg.SrcConn, seg.DstConn = 0, 0
	seg.pool.puts++
	seg.pool.free = append(seg.pool.free, seg)
}

// releasePayload is the hook tcpsim installs on the network (see
// nsim.Network.SetPayloadRelease): the payload of a dropped datagram, when
// it is a segment, gives back the wire copy's reference.
func releasePayload(payload any) {
	if seg, ok := payload.(*Segment); ok {
		releaseSegment(seg)
	}
}

// retainPayload is the duplication hook (see nsim.Network.SetPayloadRetain):
// when the network clones a datagram in flight (netem's DuplicateBox), the
// wire copy gets a segment reference of its own, so both copies can be
// delivered or dropped in any order and the pool ledger still balances.
func retainPayload(payload any) {
	if seg, ok := payload.(*Segment); ok && seg.pooled {
		seg.refs++
	}
}

// SetCongestion selects the congestion-control algorithm for connections
// created after the call (default Reno).
func (s *Stack) SetCongestion(cc CongestionAlgorithm) { s.cc = cc }

// Congestion reports the stack's configured algorithm.
func (s *Stack) Congestion() CongestionAlgorithm { return s.cc }

// SetECN enables ECN (RFC 3168) for connections created after the call:
// outgoing SYNs offer it, incoming ECN-setup SYNs are accepted, and
// negotiated connections send ECT datagrams and react to echoed CE marks
// with a once-per-RTT window reduction instead of a retransmission.
// Default off, which leaves the wire behavior bit-identical to a stack
// built before ECN existed.
func (s *Stack) SetECN(on bool) { s.ecn = on }

// ECN reports whether the stack negotiates ECN on new connections.
func (s *Stack) ECN() bool { return s.ecn }

// SetMaxRTORetries sets how many consecutive retransmission timeouts a
// connection rides out before tearing down (Linux's tcp_retries2 sysctl);
// 0 restores the default. Existing connections see the new cap on their
// next timeout. The default ladder (200ms min RTO doubling to 60s) gives
// up after roughly two minutes of silence; endpoints that must survive a
// longer scripted outage and resume on link-up raise the cap instead of
// disabling the timeout machinery.
func (s *Stack) SetMaxRTORetries(n int) {
	if n < 0 {
		n = 0
	}
	s.rtoRetryCap = n
}

// maxRetries resolves the stack's effective RTO retry cap.
func (s *Stack) maxRetries() int {
	if s.rtoRetryCap > 0 {
		return s.rtoRetryCap
	}
	return maxRTORetries
}

// NewStack creates a TCP engine for the namespace with a private segment
// pool.
func NewStack(ns *nsim.Namespace) *Stack {
	return NewStackPool(ns, nil)
}

// NewStackPool creates a TCP engine drawing segments from the given pool;
// nil gets a private pool. Stacks on the same loop can share one pool.
func NewStackPool(ns *nsim.Namespace, segs *SegmentPool) *Stack {
	if segs == nil {
		segs = &SegmentPool{}
	}
	s := &Stack{
		ns:        ns,
		loop:      ns.Network().Loop(),
		conns:     make(map[fourTuple]*Conn),
		listeners: make(map[nsim.AddrPort]func(*Conn)),
		boundPort: make(map[uint16]bool),
		segs:      segs,
	}
	ns.SetRxBatchHooks(s.beginRxBatch, s.endRxBatch)
	ns.SetDemux(s.demux)
	// Close the drop-release chain: a datagram dropped anywhere in the
	// network gives its segment reference back to the pool. The retain
	// hook is the chain's mirror image for duplicated wire copies.
	ns.Network().SetPayloadRelease(releasePayload)
	ns.Network().SetPayloadRetain(retainPayload)
	return s
}

// beginRxBatch marks the start of a packet-train delivery.
func (s *Stack) beginRxBatch() { s.rxBatch++ }

// endRxBatch finishes a train: every connection the train touched gets one
// final retransmission-timer pass, in the order the train reached them.
func (s *Stack) endRxBatch() {
	s.rxBatch--
	for i, c := range s.rtoDirty {
		s.rtoDirty[i] = nil
		c.rtoDirty = false
		c.flushRTO()
	}
	s.rtoDirty = s.rtoDirty[:0]
}

// Namespace returns the stack's namespace.
func (s *Stack) Namespace() *nsim.Namespace { return s.ns }

// Segments exposes the stack's segment pool, for leak accounting in tests.
func (s *Stack) Segments() *SegmentPool { return s.segs }

// Loop returns the stack's event loop.
func (s *Stack) Loop() *sim.Loop { return s.loop }

// Listen registers accept for new connections to ap. A zero ap.Addr
// listens on every local address. accept is invoked once per established
// connection.
func (s *Stack) Listen(ap nsim.AddrPort, accept func(*Conn)) error {
	if accept == nil {
		return errors.New("tcpsim: Listen with nil accept")
	}
	if _, ok := s.listeners[ap]; ok {
		return fmt.Errorf("tcpsim: already listening on %s", ap)
	}
	if !s.boundPort[ap.Port] {
		// Bind the port as a wildcard on the namespace once; the stack
		// demuxes to exact listeners itself so that ReplayShell can listen
		// on hundreds of (addr, port) pairs cheaply.
		if err := s.ns.Bind(nsim.AddrPort{Addr: 0, Port: ap.Port}, s.receive); err != nil {
			return err
		}
		s.boundPort[ap.Port] = true
	}
	s.listeners[ap] = accept
	return nil
}

// Dial opens a connection from laddr (a local address of the namespace) to
// raddr. The returned Conn is in SYN-SENT state; OnEstablished fires when
// the handshake completes. Data written before establishment is buffered.
func (s *Stack) Dial(laddr nsim.Addr, raddr nsim.AddrPort) (*Conn, error) {
	// The connection's own handler serves its ephemeral socket, bound once
	// per Conn object, so a pooled connection dials allocation-free.
	c := newConn(s, nsim.AddrPort{Addr: laddr}, raddr, false)
	lap, err := s.ns.BindEphemeral(laddr, c.recvFn)
	if err != nil {
		c.state = StateClosed
		s.Recycle(c)
		return nil, err
	}
	c.local = lap
	s.register(c)
	c.sendSYN()
	return c, nil
}

// DeliverIntercepted feeds a datagram that was transparently redirected to
// this stack (via nsim's intercept hook) as though it had arrived on a
// listening port. RecordShell uses this to terminate connections addressed
// to arbitrary origin addresses.
func (s *Stack) DeliverIntercepted(dg *nsim.Datagram) { s.receive(dg) }

// register enters a new connection into the index table and, when it was
// accepted, the four-tuple map.
func (s *Stack) register(c *Conn) {
	if c.server {
		s.conns[fourTuple{c.local, c.remote}] = c
	}
	if n := len(s.tabFree); n > 0 {
		c.id = s.tabFree[n-1]
		s.tabFree = s.tabFree[:n-1]
		s.tab[c.id-1] = c
	} else {
		s.tab = append(s.tab, c)
		c.id = uint32(len(s.tab))
	}
}

// byIndex resolves a segment's DstConn. The four-tuple check makes a hit
// exact: at most one live connection holds a four-tuple, so a stale or
// reused index can only miss, never misdeliver.
func (s *Stack) byIndex(dg *nsim.Datagram, seg *Segment) *Conn {
	if i := seg.DstConn; i != 0 && int(i) <= len(s.tab) {
		if c := s.tab[i-1]; c != nil && c.local == dg.Dst && c.remote == dg.Src {
			return c
		}
	}
	return nil
}

// demux is the namespace's established-connection lookup (see
// nsim.Namespace.SetDemux): it claims a datagram whose segment names a
// live connection by index, and leaves everything else to the socket
// tables and receive.
func (s *Stack) demux(dg *nsim.Datagram) bool {
	seg, ok := dg.Payload.(*Segment)
	if !ok {
		return false
	}
	c := s.byIndex(dg, seg)
	if c == nil {
		return false
	}
	s.deliver(c, dg, seg)
	return true
}

// deliver hands a segment to its connection and releases the wire copy's
// reference: a segment the connection needs to keep (out-of-order
// reassembly) takes its own reference.
func (s *Stack) deliver(c *Conn, dg *nsim.Datagram, seg *Segment) {
	if dg.Corrupt {
		// Checksum failure: the segment is discarded before any TCP
		// processing — no ack, no state change — exactly as a hardware
		// checksum drop. The loss is only discovered by the sender's
		// retransmission machinery.
		c.stats.ChecksumDrops++
		s.release(seg)
		return
	}
	if seg.SrcConn != 0 {
		c.peerID = seg.SrcConn
	}
	c.handleSegment(seg, dg.CE)
	s.release(seg)
}

// receive demuxes an inbound datagram on a listening port, or one a dialed
// connection's socket handed on (see Conn.receive), after the namespace's
// demux found no connection by index. Every exit path releases the wire
// copy's segment reference.
func (s *Stack) receive(dg *nsim.Datagram) {
	seg, ok := dg.Payload.(*Segment)
	if !ok {
		return
	}
	if c := s.conns[fourTuple{local: dg.Dst, remote: dg.Src}]; c != nil {
		s.deliver(c, dg, seg)
		return
	}
	// New connection? Must be an intact SYN to a listener.
	if dg.Corrupt || seg.Flags&FlagSYN == 0 || seg.Flags&FlagACK != 0 {
		s.release(seg)
		return // stray segment for a dead connection; drop
	}
	accept := s.lookupListener(dg.Dst)
	if accept == nil {
		s.release(seg)
		return // port bound but no listener for this address: drop (RST-less)
	}
	c := newConn(s, dg.Dst, dg.Src, true)
	c.acceptFn = accept
	s.register(c)
	s.deliver(c, dg, seg)
}

func (s *Stack) lookupListener(ap nsim.AddrPort) func(*Conn) {
	if fn, ok := s.listeners[ap]; ok {
		return fn
	}
	if fn, ok := s.listeners[nsim.AddrPort{Addr: 0, Port: ap.Port}]; ok {
		return fn
	}
	return nil
}

// drop removes a closed connection from the table and releases its
// ephemeral port.
func (s *Stack) drop(c *Conn) {
	s.tab[c.id-1] = nil
	s.tabFree = append(s.tabFree, c.id)
	c.id, c.peerID = 0, 0
	if c.server {
		delete(s.conns, fourTuple{c.local, c.remote})
	} else {
		s.ns.Unbind(c.local)
	}
}

// send transmits a segment for the connection. The datagram comes from the
// network's pool; nsim recycles it once it is delivered or dropped.
func (s *Stack) send(c *Conn, seg *Segment) error {
	dg := s.ns.Network().NewDatagram()
	dg.Src = c.local
	dg.Dst = c.remote
	dg.Size = seg.WireSize()
	dg.Flow = c.flow
	dg.Seq = int64(seg.Seq)
	// Every datagram of a negotiated connection is ECT, pure ACKs
	// included (the ECN++ stance of RFC 8311 experiments, rather than
	// RFC 3168's data-only ECT): on a marking-AQM path the connection
	// then never loses a packet to the control law, only to buffer
	// overflow. The SYN predates negotiation, so it is never ECT.
	dg.ECT = c.ectOK
	dg.Payload = seg
	seg.SrcConn = c.id
	seg.DstConn = c.peerID
	return s.ns.Send(dg)
}

// Conns reports the number of live connections.
func (s *Stack) Conns() int { return len(s.tab) - len(s.tabFree) }
