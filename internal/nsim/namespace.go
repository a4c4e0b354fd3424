package nsim

import (
	"errors"
	"fmt"

	"repro/internal/netem"
	"repro/internal/sim"
)

// DatagramHandler receives datagrams delivered to a bound socket.
type DatagramHandler func(dg *Datagram)

// Network is a collection of namespaces sharing one virtual clock. It
// hands out flow identifiers, holds the loop, and owns the per-loop packet
// and datagram pools that make the forwarding path allocation-free; it does
// not provide any connectivity (connectivity is exclusively via Links).
type Network struct {
	loop     *sim.Loop
	nextFlow uint64
	nsCount  int
	// pools recycles the netem packets that wrap datagrams crossing links
	// and the pooled datagrams themselves (see NewDatagram).
	pools *PoolSet
	// payloadRelease, when set (by the transport, see SetPayloadRelease),
	// receives the payload of every datagram dropped inside the network —
	// qdisc drops, loss, TTL expiry, no-route, no-socket — so the
	// transport can release the wire copy's reference on it.
	payloadRelease func(payload any)
	// payloadRetain, when set (see SetPayloadRetain), takes an additional
	// reference on a datagram's payload when the network clones the
	// datagram (DuplicateBox), so each copy owns a release of its own.
	payloadRetain func(payload any)
}

// PoolSet holds a network's recycled packet and datagram free lists. Pool
// reuse is single-goroutine (per loop), so the lists are unsynchronized.
// A PoolSet outlives any one Network: a driver running many sequential
// simulations (one fresh Network each, as the experiment engine does per
// cell) can thread one PoolSet through all of them so the pools warm up
// once instead of once per simulation. A PoolSet must never be shared by
// two concurrently running networks.
type PoolSet struct {
	pkts   netem.PacketPool
	dgFree []*Datagram
	// batchFree recycles the datagram-batch containers that carry packet
	// trains across the one delivery event a train shares.
	batchFree []*dgBatch
	// dgGets and dgPuts count datagram pool traffic for leak accounting:
	// at quiescence they must balance (see OutstandingDatagrams).
	dgGets, dgPuts uint64
}

// OutstandingDatagrams reports pooled datagrams currently alive (handed
// out by NewDatagram and not yet recycled). Zero at quiescence means no
// drop path leaked a datagram.
func (ps *PoolSet) OutstandingDatagrams() int64 {
	return int64(ps.dgGets) - int64(ps.dgPuts)
}

// OutstandingPackets reports pooled netem packets currently alive; zero at
// quiescence means every wrapper came back, delivered or dropped.
func (ps *PoolSet) OutstandingPackets() int64 { return ps.pkts.Outstanding() }

// dgBatch is a pooled container for a train's datagrams, the argument of
// the single delivery event a train costs (instead of one event per
// packet). The receiving namespace consumes the datagrams in order and
// recycles the container.
type dgBatch struct {
	dgs []*Datagram
}

// getBatch returns an empty batch container from the pool.
func (n *Network) getBatch() *dgBatch {
	free := n.pools.batchFree
	if ln := len(free); ln > 0 {
		b := free[ln-1]
		free[ln-1] = nil
		n.pools.batchFree = free[:ln-1]
		return b
	}
	return &dgBatch{}
}

// putBatch recycles a drained batch container.
func (n *Network) putBatch(b *dgBatch) {
	for i := range b.dgs {
		b.dgs[i] = nil
	}
	b.dgs = b.dgs[:0]
	n.pools.batchFree = append(n.pools.batchFree, b)
}

// NewNetwork creates an empty network on the given event loop, with its
// own private pools.
func NewNetwork(loop *sim.Loop) *Network {
	return NewNetworkPooled(loop, nil)
}

// NewNetworkPooled creates an empty network that draws from (and returns
// to) the given PoolSet; nil gets a private set.
func NewNetworkPooled(loop *sim.Loop, pools *PoolSet) *Network {
	if pools == nil {
		pools = &PoolSet{}
	}
	n := &Network{loop: loop, pools: pools}
	// Dropped wrappers release their datagram (and, through the
	// transport's hook, its payload) right at the drop point. A PoolSet
	// threaded through sequential networks is re-pointed at each new
	// network; only one runs at a time, so the latest binding is always
	// the live one.
	pools.pkts.ReleasePayload = n.releaseDroppedPacket
	pools.pkts.ClonePayload = n.cloneWirePayload
	return n
}

// Pools exposes the network's pool set, for leak accounting in tests.
func (n *Network) Pools() *PoolSet { return n.pools }

// SetPayloadRetain installs the transport's duplication hook: fn takes one
// additional reference on a transport payload when the network clones a
// datagram carrying it (a netem DuplicateBox emitting a wire copy), so the
// clone's eventual delivery or drop releases a reference the payload
// actually holds. Without the hook, cloned datagrams carry a nil payload —
// size-accurate on the wire but invisible to the transport.
func (n *Network) SetPayloadRetain(fn func(payload any)) { n.payloadRetain = fn }

// cloneWirePayload is the packet pool's clone hook (netem.Packet.Clone,
// used by DuplicateBox): the datagram inside the duplicated packet is
// cloned through the pool, and the transport payload underneath gains a
// reference of its own, making the two wire copies independently droppable.
func (n *Network) cloneWirePayload(payload any) any {
	dg, ok := payload.(*Datagram)
	if !ok {
		return nil
	}
	cp := n.NewDatagram()
	pooled := cp.pooled
	*cp = *dg
	cp.pooled = pooled
	if cp.Payload != nil {
		if n.payloadRetain != nil {
			n.payloadRetain(cp.Payload)
		} else {
			cp.Payload = nil
		}
	}
	return cp
}

// SetPayloadRelease installs the transport's drop hook: fn receives the
// payload of every datagram the network drops, so reference-counted
// transport objects (tcpsim segments) are released instead of leaking to
// the garbage collector. The transport installs it once per stack; payloads
// of other types must be ignored by fn.
func (n *Network) SetPayloadRelease(fn func(payload any)) { n.payloadRelease = fn }

// releaseDroppedPacket is the packet pool's drop hook: a netem box dropped
// a wrapper (qdisc tail/AQM drop, loss), so the datagram inside is dead —
// release its payload through the transport and recycle it.
func (n *Network) releaseDroppedPacket(payload any) {
	dg, ok := payload.(*Datagram)
	if !ok {
		return
	}
	n.dropDatagram(dg)
}

// dropDatagram consumes a datagram that will never reach a socket:
// the transport's payload hook releases the wire copy's reference, then
// the datagram itself is recycled.
func (n *Network) dropDatagram(dg *Datagram) {
	if n.payloadRelease != nil && dg.Payload != nil {
		n.payloadRelease(dg.Payload)
	}
	n.freeDatagram(dg)
}

// NewDatagram returns a zeroed datagram from the network's pool. Pooled
// datagrams are recycled automatically once delivered to a socket or
// dropped (TTL, no route, no socket); the receiving handler must therefore
// not retain the datagram itself beyond its callback — only its Payload,
// whose lifetime the transport manages. Datagrams built with a composite
// literal are never recycled, so existing callers are unaffected.
func (n *Network) NewDatagram() *Datagram {
	n.pools.dgGets++
	free := n.pools.dgFree
	if ln := len(free); ln > 0 {
		dg := free[ln-1]
		free[ln-1] = nil
		n.pools.dgFree = free[:ln-1]
		return dg
	}
	return &Datagram{pooled: true}
}

// freeDatagram recycles a pooled datagram; literals are ignored.
func (n *Network) freeDatagram(dg *Datagram) {
	if !dg.pooled {
		return
	}
	n.pools.dgPuts++
	*dg = Datagram{pooled: true}
	n.pools.dgFree = append(n.pools.dgFree, dg)
}

// Loop returns the network's event loop.
func (n *Network) Loop() *sim.Loop { return n.loop }

// NextFlow allocates a network-unique flow identifier.
func (n *Network) NextFlow() uint64 {
	n.nextFlow++
	return n.nextFlow
}

// route is a prefix-routed next hop.
type route struct {
	prefix Addr
	bits   int
	via    *LinkEnd
}

// Namespace is an isolated network stack: a private set of owned addresses,
// a socket table, attached link endpoints and a routing table.
type Namespace struct {
	name    string
	net     *Network
	locals  map[Addr]bool
	links   []*LinkEnd
	routes  []route
	sockets map[AddrPort]DatagramHandler
	// wildcards handles binds to port on the zero address (any local addr).
	wildcards map[uint16]DatagramHandler
	// intercept, when set, sees every datagram that arrives for a
	// non-local destination before routing. Returning true consumes the
	// datagram. This models the iptables REDIRECT rule RecordShell uses to
	// steer all HTTP(S) traffic into its man-in-the-middle proxy.
	intercept func(dg *Datagram) bool
	nextPort  uint16
	stats     NamespaceStats
	// recvArg and deliverArg are the namespace's receive/deliverLocal
	// methods pre-bound as ArgHandlers, so the per-packet event-loop hops
	// (link delivery, loopback sends) schedule without allocating a
	// closure. recvBatchArg is the train analogue: one event delivering a
	// whole dgBatch.
	recvArg      sim.ArgHandler
	deliverArg   sim.ArgHandler
	recvBatchArg sim.ArgHandler
	// rxBatchStart/rxBatchEnd bracket a batched train delivery, letting
	// the namespace's transport (one TCP stack at most) coalesce per-train
	// work — e.g. one retransmission-timer pass per train instead of per
	// segment. See SetRxBatchHooks.
	rxBatchStart func()
	rxBatchEnd   func()
}

// NamespaceStats counts traffic seen by a namespace.
type NamespaceStats struct {
	DeliveredLocal uint64 // datagrams delivered to a local socket
	Forwarded      uint64 // datagrams routed onward
	NoRoute        uint64 // datagrams dropped: no route to destination
	NoSocket       uint64 // datagrams dropped: no socket on the port
	TTLExceeded    uint64 // datagrams dropped while forwarding
}

// NewNamespace creates an isolated namespace in the network.
func (n *Network) NewNamespace(name string) *Namespace {
	n.nsCount++
	if name == "" {
		name = fmt.Sprintf("ns%d", n.nsCount)
	}
	ns := &Namespace{
		name:      name,
		net:       n,
		locals:    make(map[Addr]bool),
		sockets:   make(map[AddrPort]DatagramHandler),
		wildcards: make(map[uint16]DatagramHandler),
		nextPort:  49152,
	}
	ns.recvArg = func(_ sim.Time, a any) { ns.receive(a.(*Datagram)) }
	ns.deliverArg = func(_ sim.Time, a any) { ns.deliverLocal(a.(*Datagram)) }
	ns.recvBatchArg = func(_ sim.Time, a any) { ns.receiveBatch(a.(*dgBatch)) }
	return ns
}

// SetRxBatchHooks installs callbacks bracketing each batched train
// delivery: start fires before the train's first datagram is handed to
// receive, end after its last. The TCP stack uses the bracket to defer
// per-segment timer rearms to one pass per train; the hooks must not
// assume anything about the datagrams in between (forwarded, dropped, or
// delivered locally).
func (ns *Namespace) SetRxBatchHooks(start, end func()) {
	ns.rxBatchStart, ns.rxBatchEnd = start, end
}

// receiveBatch consumes one delivered train: each datagram goes through
// the normal receive path, in train order, with nothing in between —
// exactly the event sequence the per-packet path would have produced.
func (ns *Namespace) receiveBatch(b *dgBatch) {
	if ns.rxBatchStart != nil {
		ns.rxBatchStart()
	}
	for _, dg := range b.dgs {
		ns.receive(dg)
	}
	if ns.rxBatchEnd != nil {
		ns.rxBatchEnd()
	}
	ns.net.putBatch(b)
}

// Name reports the namespace's label.
func (ns *Namespace) Name() string { return ns.name }

// Network returns the owning network.
func (ns *Namespace) Network() *Network { return ns.net }

// Stats returns the namespace's traffic counters.
func (ns *Namespace) Stats() NamespaceStats { return ns.stats }

// AddAddress assigns an address to the namespace. ReplayShell uses this to
// own every server IP seen during recording ("creates a separate virtual
// interface for each distinct server IP", paper §2).
func (ns *Namespace) AddAddress(a Addr) {
	ns.locals[a] = true
}

// OwnsAddress reports whether the namespace owns the address.
func (ns *Namespace) OwnsAddress(a Addr) bool { return ns.locals[a] }

// Addresses returns the number of addresses the namespace owns.
func (ns *Namespace) Addresses() int { return len(ns.locals) }

// ErrPortInUse is returned by Bind when the endpoint is already bound.
var ErrPortInUse = errors.New("nsim: address already in use")

// ErrNotLocal is returned by Bind when the address is not owned by the
// namespace.
var ErrNotLocal = errors.New("nsim: cannot bind to non-local address")

// Bind installs a handler for datagrams addressed to ap. Binding to an
// address the namespace does not own fails, preserving isolation. A zero
// ap.Addr binds the port on every local address (wildcard).
func (ns *Namespace) Bind(ap AddrPort, h DatagramHandler) error {
	if h == nil {
		return errors.New("nsim: Bind with nil handler")
	}
	if ap.Addr == 0 {
		if _, ok := ns.wildcards[ap.Port]; ok {
			return fmt.Errorf("%w: *:%d", ErrPortInUse, ap.Port)
		}
		ns.wildcards[ap.Port] = h
		return nil
	}
	if !ns.locals[ap.Addr] {
		return fmt.Errorf("%w: %s", ErrNotLocal, ap.Addr)
	}
	if _, ok := ns.sockets[ap]; ok {
		return fmt.Errorf("%w: %s", ErrPortInUse, ap)
	}
	ns.sockets[ap] = h
	return nil
}

// Unbind removes a socket binding.
func (ns *Namespace) Unbind(ap AddrPort) {
	if ap.Addr == 0 {
		delete(ns.wildcards, ap.Port)
		return
	}
	delete(ns.sockets, ap)
}

// BindEphemeral binds h to a fresh ephemeral port on the given local
// address, returning the chosen endpoint.
func (ns *Namespace) BindEphemeral(a Addr, h DatagramHandler) (AddrPort, error) {
	if !ns.locals[a] {
		return AddrPort{}, fmt.Errorf("%w: %s", ErrNotLocal, a)
	}
	for tries := 0; tries < 1<<16; tries++ {
		port := ns.nextPort
		ns.nextPort++
		if ns.nextPort == 0 {
			ns.nextPort = 49152
		}
		ap := AddrPort{Addr: a, Port: port}
		if _, ok := ns.sockets[ap]; ok {
			continue
		}
		if err := ns.Bind(ap, h); err == nil {
			return ap, nil
		}
	}
	return AddrPort{}, errors.New("nsim: ephemeral ports exhausted")
}

// AddRoute installs a prefix route via the given link end. More-specific
// prefixes win; ties go to the most recently added route.
func (ns *Namespace) AddRoute(prefix Addr, bits int, via *LinkEnd) {
	if via == nil || via.ns != ns {
		panic("nsim: AddRoute via a link end not attached to this namespace")
	}
	ns.routes = append(ns.routes, route{prefix: prefix, bits: bits, via: via})
}

// AddDefaultRoute installs a 0.0.0.0/0 route via the given link end.
func (ns *Namespace) AddDefaultRoute(via *LinkEnd) { ns.AddRoute(0, 0, via) }

// lookup finds the best route for dst, or nil.
func (ns *Namespace) lookup(dst Addr) *LinkEnd {
	best := -1
	var via *LinkEnd
	for i := range ns.routes {
		r := &ns.routes[i]
		if dst.InSubnet(r.prefix, r.bits) && r.bits >= best {
			best = r.bits
			via = r.via
		}
	}
	return via
}

// ErrNoRoute is returned by Send when no route matches the destination.
var ErrNoRoute = errors.New("nsim: no route to host")

// Send originates a datagram from this namespace. Local destinations are
// delivered through the event loop (so delivery order is deterministic and
// never reentrant); everything else is routed.
func (ns *Namespace) Send(dg *Datagram) error {
	if dg.TTL == 0 {
		dg.TTL = DefaultTTL
	}
	if ns.locals[dg.Dst.Addr] {
		ns.net.loop.ScheduleArg(0, ns.deliverArg, dg)
		return nil
	}
	via := ns.lookup(dg.Dst.Addr)
	if via == nil {
		ns.stats.NoRoute++
		ns.net.freeDatagram(dg)
		return fmt.Errorf("%w: %s from %s", ErrNoRoute, dg.Dst, ns.name)
	}
	via.transmit(dg)
	return nil
}

// SetIntercept installs (or clears, with nil) the transparent interception
// hook for traffic transiting this namespace.
func (ns *Namespace) SetIntercept(fn func(dg *Datagram) bool) { ns.intercept = fn }

// receive handles a datagram arriving from a link. Every path consumes the
// datagram: delivery and drops recycle pooled datagrams, forwarding passes
// ownership to the next link.
func (ns *Namespace) receive(dg *Datagram) {
	if ns.locals[dg.Dst.Addr] {
		ns.deliverLocal(dg)
		return
	}
	if ns.intercept != nil && ns.intercept(dg) {
		ns.stats.DeliveredLocal++
		ns.net.freeDatagram(dg)
		return
	}
	// Forward. Drops here consume a datagram that already entered the
	// network, so the wire copy's payload reference is released too.
	dg.TTL--
	if dg.TTL <= 0 {
		ns.stats.TTLExceeded++
		ns.net.dropDatagram(dg)
		return
	}
	via := ns.lookup(dg.Dst.Addr)
	if via == nil {
		ns.stats.NoRoute++
		ns.net.dropDatagram(dg)
		return
	}
	ns.stats.Forwarded++
	via.transmit(dg)
}

func (ns *Namespace) deliverLocal(dg *Datagram) {
	if h, ok := ns.sockets[dg.Dst]; ok {
		ns.stats.DeliveredLocal++
		h(dg)
	} else if h, ok := ns.wildcards[dg.Dst.Port]; ok {
		ns.stats.DeliveredLocal++
		h(dg)
	} else {
		// No socket: nothing consumed the payload, so release the wire
		// copy's reference before recycling.
		ns.stats.NoSocket++
		ns.net.dropDatagram(dg)
		return
	}
	// The handler has returned; the datagram is consumed (the handler
	// released or retained the payload itself).
	ns.net.freeDatagram(dg)
}

// LinkEnd is one side of a veth pair attached to a namespace.
type LinkEnd struct {
	ns   *Namespace
	pipe *netem.Pipeline // shaping applied to traffic leaving this end
	peer *LinkEnd
	in   [1]*netem.Packet // ingress slot: each datagram enters as a one-packet train
}

// Namespace returns the namespace this end is attached to.
func (le *LinkEnd) Namespace() *Namespace { return le.ns }

// Pipeline returns the netem pipeline shaping this end's egress.
func (le *LinkEnd) Pipeline() *netem.Pipeline { return le.pipe }

// transmit pushes a datagram into this end's egress pipeline, wrapped in a
// pooled packet that the far sink recycles on arrival. The ECN bits ride
// the wrapper: ECT so the link's AQM knows it may mark, CE so a mark
// acquired on an earlier hop survives re-wrapping.
func (le *LinkEnd) transmit(dg *Datagram) {
	pkt := le.ns.net.pools.pkts.Get()
	pkt.Size = dg.Size
	pkt.Flow = dg.Flow
	pkt.Seq = dg.Seq
	pkt.ECT = dg.ECT
	pkt.CE = dg.CE
	pkt.Corrupt = dg.Corrupt
	pkt.Payload = dg
	le.in[0] = pkt
	le.pipe.Send(le.in[:])
	le.in[0] = nil
}

// unwrap takes the datagram out of a packet that crossed a link, carrying
// the marks the link set on the wrapper, and recycles the wrapper.
func (n *Network) unwrap(p *netem.Packet) *Datagram {
	dg := p.Payload.(*Datagram)
	if p.CE {
		dg.CE = true // the link's AQM marked this packet
	}
	if p.Corrupt {
		dg.Corrupt = true // a CorruptBox damaged this packet
	}
	n.pools.pkts.Put(p)
	return dg
}

// Connect creates a veth pair between two namespaces. Traffic from a to b
// traverses ab (nil for an unshaped wire); traffic from b to a traverses
// ba. The returned ends can be used as route targets.
//
// This is the moral equivalent of `ip link add veth0 type veth peer veth1`
// plus moving the peers into their namespaces — with the crucial Mahimahi
// twist that the pair's two directions are where DelayShell/LinkShell hang
// their queues.
func Connect(a, b *Namespace, ab, ba *netem.Pipeline) (*LinkEnd, *LinkEnd) {
	if a.net != b.net {
		panic("nsim: Connect across networks")
	}
	if ab == nil {
		ab = netem.NewPipeline()
	}
	if ba == nil {
		ba = netem.NewPipeline()
	}
	ea := &LinkEnd{ns: a, pipe: ab}
	eb := &LinkEnd{ns: b, pipe: ba}
	ea.peer, eb.peer = eb, ea
	// Delivery into the receiving namespace always goes through the event
	// loop, even when the pipeline itself imposes no delay. This keeps
	// packet receipt from reentering a protocol stack that is mid-callback
	// (e.g. an application writing from within its data handler must not
	// observe the next inbound packet before its own handler returns), at
	// zero virtual-time cost; same-timestamp events preserve FIFO order.
	// Delivery callbacks are symmetric per direction. A train of several
	// packets crosses into the receiving namespace through one event
	// carrying a pooled datagram batch; a one-packet train is scheduled
	// bare (no container churn). Either way the firing order is identical
	// to per-packet delivery, because a train's packets are adjacent in
	// event order by construction.
	loop := a.net.loop
	net := a.net
	sink := func(dst *Namespace) netem.Sink {
		return func(pkts []*netem.Packet) {
			if len(pkts) == 1 {
				loop.ScheduleArg(0, dst.recvArg, net.unwrap(pkts[0]))
				return
			}
			batch := net.getBatch()
			for _, p := range pkts {
				batch.dgs = append(batch.dgs, net.unwrap(p))
			}
			loop.ScheduleArg(0, dst.recvBatchArg, batch)
		}
	}
	ab.SetSink(sink(b))
	ba.SetSink(sink(a))
	a.links = append(a.links, ea)
	b.links = append(b.links, eb)
	return ea, eb
}
