// Package browser models a web browser's page-load process well enough to
// measure page load time (PLT) over emulated networks.
//
// Mahimahi measures unmodified browsers; this reproduction cannot run
// Chrome, so it models the network-visible behaviour that determines PLT
// (the approach taken by page-load modelling work such as WProf/Epload):
//
//   - resources form a dependency graph (webgen.Page); a resource is
//     requested once discovered;
//   - discovery is incremental: a reference at byte fraction f of the
//     parent becomes visible once that fraction of the parent's body has
//     arrived (HTML parsers do not wait for the full document);
//   - each (scheme, host, port) origin gets a pool of at most
//     ConnsPerHost persistent connections (6, matching 2014 browsers);
//     requests queue when the pool is saturated; there is no pipelining;
//   - DNS lookups go through the shell's resolver and are cached;
//   - after a resource downloads, a CPU (parse/execute) delay elapses
//     before its children are discovered; CPU work is serialized on a
//     single main thread, as in a real browser — this is what gives page
//     load times their compute floor on fast networks;
//   - PLT (onload) is when every discovered resource has downloaded and
//     parsed.
package browser

import (
	"fmt"

	"repro/internal/dnssim"
	"repro/internal/httpx"
	"repro/internal/nsim"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/webgen"
)

// Options tunes the browser model.
type Options struct {
	// ConnsPerHost is the per-origin connection limit (default 6).
	ConnsPerHost int
	// CPUScale scales resource CPU costs (1.0 = as generated; 0 disables
	// compute modelling entirely).
	CPUScale float64
	// Multiplex switches each origin to a single connection carrying many
	// concurrent requests (a SPDY/HTTP2-style transport, the paper's §1
	// "new multiplexing protocols" use case). Responses are delivered in
	// request order on the connection, so transport-level head-of-line
	// blocking is modelled; header compression and prioritization are not.
	Multiplex bool
	// MaxPipeline bounds outstanding requests per multiplexed connection
	// (0 = unlimited).
	MaxPipeline int
	// ResponseTimeout bounds how long a connection with outstanding
	// requests may stay silent before the browser gives up on it: the
	// connection is aborted and its requests counted in Result.Failed. It
	// exists for the half-dead-connection case a link outage produces —
	// the request was ACKed before the link died, so the client transport
	// has nothing in flight and no timer running, and without an
	// application deadline the load would wait forever for a response the
	// (torn-down) server will never send. 0 disables the deadline.
	ResponseTimeout sim.Time
}

// DefaultOptions matches a 2014-era desktop browser.
func DefaultOptions() Options {
	return Options{ConnsPerHost: 6, CPUScale: 1.0}
}

// MultiplexOptions models a SPDY-style client: one multiplexed connection
// per origin.
func MultiplexOptions() Options {
	return Options{ConnsPerHost: 1, CPUScale: 1.0, Multiplex: true}
}

// ResourceTiming records one resource's fetch interval.
type ResourceTiming struct {
	URL        string
	Discovered sim.Time
	Start      sim.Time // request written (after DNS + connection acquired)
	Done       sim.Time // body fully received
	Status     int
	Bytes      int
}

// Result summarizes a completed page load.
type Result struct {
	Page *webgen.Page
	// Start is when navigation began; PLT is the onload time minus Start.
	Start sim.Time
	PLT   sim.Time
	// Resources counts fetched resources; Errors counts non-200 responses.
	Resources int
	Errors    int
	// Failed counts resources whose connection died before the response
	// arrived (their timings carry Status 0). A load over a link that
	// never recovers still completes, reporting the casualties here
	// instead of wedging; Failed == 0 means every resource was answered.
	Failed  int
	Bytes   int
	Timings []ResourceTiming
}

// Browser drives page loads from an application namespace.
type Browser struct {
	loop     *sim.Loop
	stack    *tcpsim.Stack
	resolver *dnssim.Resolver
	local    nsim.Addr
	opts     Options
	scratch  *Scratch
}

// Scratch holds a load's bulk working storage — the per-resource fetch
// table, the child-dependency index, and the request serialization buffer —
// so a driver running many sequential loads (one browser each) can reuse
// the allocations. A Scratch must not be shared by concurrently running
// loads; nil-scratch browsers allocate privately. Results returned by Load
// never alias scratch memory.
type Scratch struct {
	fetches    []fetch
	children   [][]int
	childIdx   []int // backing storage for children's sub-slices
	childFired []bool
	counts     []int
	wireBuf    []byte
	// parsers recycles response parsers across connections and loads.
	// The browser reads only body lengths, so parsers run in metering
	// mode (httpx.ResponseParser.MeterBodies): lengths stay exact and no
	// body byte is copied off the wire.
	parsers []*httpx.ResponseParser
}

// getParser draws a recycled response parser, or creates one.
func (sc *Scratch) getParser() *httpx.ResponseParser {
	if n := len(sc.parsers); n > 0 {
		p := sc.parsers[n-1]
		sc.parsers[n-1] = nil
		sc.parsers = sc.parsers[:n-1]
		p.Reset()
		return p
	}
	return &httpx.ResponseParser{MeterBodies: true}
}

// New creates a browser. stack must belong to the app namespace; resolver
// is the shell's DNS view; local is the app namespace's address.
func New(stack *tcpsim.Stack, resolver *dnssim.Resolver, local nsim.Addr, opts Options) *Browser {
	if opts.ConnsPerHost <= 0 {
		opts.ConnsPerHost = 6
	}
	return &Browser{
		loop:     stack.Loop(),
		stack:    stack,
		resolver: resolver,
		local:    local,
		opts:     opts,
	}
}

// UseScratch makes subsequent loads draw bulk working storage from s (nil
// reverts to private allocation). See Scratch for the sharing rules.
func (b *Browser) UseScratch(s *Scratch) { b.scratch = s }

// fetch tracks one resource's lifecycle.
type fetch struct {
	idx        int
	res        *webgen.Resource
	timing     ResourceTiming
	discovered bool
	doneNet    bool // body fully received
	doneCPU    bool // parse/execute finished
}

// poolConn is one persistent connection in an origin pool.
type poolConn struct {
	tc     *tcpsim.Conn
	parser *httpx.ResponseParser
	// inflight are requests written (or queued pre-handshake) whose
	// responses are outstanding, in order. Without Multiplex there is at
	// most one.
	inflight []*fetch
	issued   int // how many of inflight have been written to the wire
	ready    bool
	dead     bool
	// bodySeen approximates body bytes received for the head in-flight
	// fetch, for incremental discovery.
	headSkipped bool
	bodySeen    int
	// respTimer enforces Options.ResponseTimeout: armed while requests are
	// outstanding, fed by every arriving byte, aborts the connection on
	// expiry. Unused (never armed) when the timeout is 0.
	respTimer sim.Timer
}

// pool is the per-origin connection pool.
type pool struct {
	addr  nsim.Addr
	port  uint16
	conns []*poolConn
	queue []*fetch
}

// load is one in-progress page load.
type load struct {
	b       *Browser
	sc      *Scratch // effective scratch (shared or load-private)
	page    *webgen.Page
	fetches []fetch
	// children[i] lists resource i's child indices; childFired[c] records
	// that child c's discovery was triggered (each child has exactly one
	// parent, so the flag can be global).
	children   [][]int
	childFired []bool
	pools      map[originKey]*pool
	// poolOrder lists pools in creation order. Completion iterates it —
	// never the map — so the close-time FIN segments (which flow through
	// the qdisc like any other packet) hit the wire in a deterministic
	// order rather than map-iteration order.
	poolOrder []*pool
	// resolving dedupes concurrent DNS lookups per host.
	resolved  map[string]nsim.Addr
	resolving map[string][]func(nsim.Addr)
	pending   int // resources not yet fully done (net + cpu)
	result    Result
	done      func(Result)
	finished  bool
	wireBuf   []byte // recycled request serialization buffer
	// Main-thread model: CPU tasks run serially.
	mainBusy  bool
	mainQueue []mainTask
}

// mainTask is one unit of main-thread work.
type mainTask struct {
	cpu sim.Time
	fn  func()
}

// runOnMain enqueues a CPU task on the single main thread.
func (l *load) runOnMain(cpu sim.Time, fn func()) {
	l.mainQueue = append(l.mainQueue, mainTask{cpu: cpu, fn: fn})
	l.drainMain()
}

func (l *load) drainMain() {
	if l.mainBusy || len(l.mainQueue) == 0 {
		return
	}
	task := l.mainQueue[0]
	l.mainQueue = l.mainQueue[1:]
	l.mainBusy = true
	l.b.loop.Schedule(task.cpu, func(sim.Time) {
		l.mainBusy = false
		task.fn()
		l.drainMain()
	})
}

// Load starts loading the page; done fires on the event loop when the load
// completes. The returned Result is also delivered to done.
func (b *Browser) Load(page *webgen.Page, done func(Result)) {
	if err := page.Validate(); err != nil {
		panic(fmt.Sprintf("browser: invalid page: %v", err))
	}
	sc := b.scratch
	if sc == nil {
		sc = &Scratch{}
	}
	n := len(page.Resources)
	l := &load{
		b:         b,
		sc:        sc,
		page:      page,
		pools:     map[originKey]*pool{},
		resolved:  map[string]nsim.Addr{},
		resolving: map[string][]func(nsim.Addr){},
		done:      done,
		wireBuf:   sc.wireBuf[:0],
	}
	l.result.Page = page
	l.result.Start = b.loop.Now()

	// Fetch table and child index, in recycled scratch storage. Children
	// are bucketed with a counting pass so the whole index lives in one
	// backing array.
	l.fetches = resize(sc.fetches, n)
	l.childFired = resize(sc.childFired, n)
	counts := resize(sc.counts, n)
	for i := range page.Resources {
		l.fetches[i] = fetch{idx: i, res: &page.Resources[i]}
		l.childFired[i] = false
		counts[i] = 0
	}
	for i := 1; i < n; i++ {
		counts[page.Resources[i].Parent]++
	}
	l.children = resize(sc.children, n)
	childIdx := resize(sc.childIdx, n-1)
	off := 0
	for i := 0; i < n; i++ {
		l.children[i] = childIdx[off : off : off+counts[i]]
		off += counts[i]
	}
	for i := 1; i < n; i++ {
		p := page.Resources[i].Parent
		l.children[p] = append(l.children[p], i)
	}
	// Return the (possibly grown) storage to the caller's scratch for the
	// next load; a private scratch dies with this load.
	if b.scratch != nil {
		sc.fetches, sc.childFired, sc.counts = l.fetches, l.childFired, counts
		sc.children, sc.childIdx = l.children, childIdx
	}

	l.pending = n
	l.discover(0)
}

// resize returns s with length n, reusing its capacity when possible.
func resize[T any](s []T, n int) []T {
	if n < 0 {
		n = 0
	}
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// discover marks a resource visible and begins fetching it.
func (l *load) discover(idx int) {
	f := &l.fetches[idx]
	if f.discovered {
		return
	}
	f.discovered = true
	f.timing.URL = f.res.URL()
	f.timing.Discovered = l.b.loop.Now()
	l.resolve(f.res.Host, func(addr nsim.Addr) {
		l.enqueue(f, addr)
	})
}

// resolve performs a deduplicated, cached DNS lookup.
func (l *load) resolve(host string, fn func(nsim.Addr)) {
	if addr, ok := l.resolved[host]; ok {
		fn(addr)
		return
	}
	l.resolving[host] = append(l.resolving[host], fn)
	if len(l.resolving[host]) > 1 {
		return // lookup already outstanding
	}
	l.b.resolver.Resolve(l.b.loop, host, func(addr nsim.Addr, err error) {
		waiters := l.resolving[host]
		delete(l.resolving, host)
		if err != nil {
			// Unresolvable host: count an error and finish the fetches.
			for range waiters {
				l.resourceNetDone(nil)
			}
			return
		}
		l.resolved[host] = addr
		for _, w := range waiters {
			w(addr)
		}
	})
}

// originKey groups connections the way HTTP/1.1 browsers do: per
// (scheme, host, port). Note this keys on the *hostname*, so ReplayShell's
// single-server ablation does not change the connection count — what it
// changes is that every pool's requests converge on one server process,
// whose per-request CPU then serializes (replayshell.Config.RequestCPU).
// That server-side convergence is the distortion mechanism the paper's
// Table 2 and Figure 3 measure.
type originKey struct {
	scheme, host string
	port         uint16
}

// enqueue hands the fetch to its origin pool.
func (l *load) enqueue(f *fetch, addr nsim.Addr) {
	key := originKey{scheme: f.res.Scheme, host: f.res.Host, port: f.res.Port}
	p, ok := l.pools[key]
	if !ok {
		p = &pool{addr: addr, port: f.res.Port}
		l.pools[key] = p
		l.poolOrder = append(l.poolOrder, p)
	}
	p.queue = append(p.queue, f)
	l.pump(p)
}

// pump assigns queued fetches to available connections, opening new ones
// up to the per-host limit. In multiplex mode a single connection accepts
// many outstanding requests.
func (l *load) pump(p *pool) {
	for len(p.queue) > 0 {
		pc := l.availableConn(p)
		if pc == nil {
			if len(p.conns) >= l.b.opts.ConnsPerHost {
				return // saturated; fetches wait for a connection to free up
			}
			pc = l.dial(p)
			if pc == nil {
				return
			}
			// Not ready until the handshake completes; issue() will be
			// called from OnEstablished.
		}
		f := p.queue[0]
		p.queue = p.queue[1:]
		if len(pc.inflight) == 0 {
			pc.headSkipped = false
			pc.bodySeen = 0
		}
		pc.inflight = append(pc.inflight, f)
		if pc.ready {
			l.issuePending(pc)
		}
	}
}

// availableConn finds a connection that can accept another request.
func (l *load) availableConn(p *pool) *poolConn {
	for _, pc := range p.conns {
		if !pc.ready || pc.dead {
			continue
		}
		if l.b.opts.Multiplex {
			if l.b.opts.MaxPipeline <= 0 || len(pc.inflight) < l.b.opts.MaxPipeline {
				return pc
			}
			continue
		}
		if len(pc.inflight) == 0 {
			return pc
		}
	}
	return nil
}

// dial opens a new pool connection.
func (l *load) dial(p *pool) *poolConn {
	tc, err := l.b.stack.Dial(l.b.local, nsim.AddrPort{Addr: p.addr, Port: p.port})
	if err != nil {
		return nil
	}
	pc := &poolConn{tc: tc, parser: l.sc.getParser()}
	p.conns = append(p.conns, pc)
	if l.b.opts.ResponseTimeout > 0 {
		// Expiry aborts the transport (RST); the abort's OnClose does all
		// the failure accounting and re-pumping below.
		pc.respTimer = l.b.loop.NewTimer(func(sim.Time) { pc.tc.Abort() })
	}
	tc.OnEstablished(func() {
		pc.ready = true
		l.issuePending(pc)
	})
	tc.OnData(func(data []byte) { l.onData(p, pc, data) })
	tc.OnClose(func(error) {
		pc.dead = true
		// Connection died with requests outstanding: account them as
		// failed so the load still completes. Status 0 marks the timing
		// entry as never-answered.
		for _, f := range pc.inflight {
			f.timing.Status = 0
			l.result.Failed++
			l.resourceNetDone(f)
		}
		pc.inflight = nil
		pc.issued = 0
		if l.b.opts.ResponseTimeout > 0 {
			pc.respTimer.Stop()
		}
		// Drop the dead connection from the pool and recycle its parser
		// now (complete() only sweeps live conns). The pool slot it frees
		// lets pump redial for queued fetches — without this, a load whose
		// every connection died mid-transfer (link outage, server reset)
		// would strand the queue forever with the pool reading as
		// saturated. Failed fetches are never re-queued, so a permanently
		// dead origin converges instead of redialing in a loop.
		if pc.parser != nil {
			l.sc.parsers = append(l.sc.parsers, pc.parser)
			pc.parser = nil
		}
		for i, c := range p.conns {
			if c == pc {
				p.conns = append(p.conns[:i], p.conns[i+1:]...)
				break
			}
		}
		if !l.finished && len(p.queue) > 0 {
			l.pump(p)
		}
	})
	return pc
}

// issuePending writes every assigned-but-unwritten request on the
// connection. Requests serialize into the load's recycled wire buffer
// (Conn.Write copies).
func (l *load) issuePending(pc *poolConn) {
	for pc.issued < len(pc.inflight) {
		f := pc.inflight[pc.issued]
		pc.issued++
		f.timing.Start = l.b.loop.Now()
		req := webgen.BuildRequest(f.res)
		pc.parser.ExpectMethod(req.Method)
		l.wireBuf = req.AppendWire(l.wireBuf[:0])
		pc.tc.Write(l.wireBuf)
	}
	if l.b.opts.ResponseTimeout > 0 && len(pc.inflight) > 0 {
		pc.respTimer.Reset(l.b.opts.ResponseTimeout)
	}
}

// onData feeds response bytes: incremental discovery first, then complete
// responses.
func (l *load) onData(p *pool, pc *poolConn, data []byte) {
	if pc.parser == nil {
		return // load already complete; late bytes carry nothing we need
	}
	if len(pc.inflight) > 0 {
		// Approximate body progress for the head response: count all
		// bytes after the first burst (which contains the header).
		if pc.headSkipped {
			pc.bodySeen += len(data)
		} else {
			pc.headSkipped = true
		}
		l.progress(pc.inflight[0], pc.bodySeen)
	}
	resps, err := pc.parser.Feed(data)
	if err != nil {
		pc.tc.Abort()
		return
	}
	for _, resp := range resps {
		if len(pc.inflight) == 0 {
			continue // response with no matching request; ignore
		}
		f := pc.inflight[0]
		pc.inflight = pc.inflight[1:]
		pc.issued--
		pc.headSkipped = false
		pc.bodySeen = 0
		f.timing.Status = resp.StatusCode
		f.timing.Bytes = len(resp.Body)
		l.result.Bytes += len(resp.Body)
		if resp.StatusCode != 200 {
			l.result.Errors++
		}
		l.resourceNetDone(f)
		// Capacity freed on the connection.
		l.pump(p)
	}
	if l.b.opts.ResponseTimeout > 0 {
		// Any arriving byte is a sign of life: push the deadline out while
		// responses remain outstanding (including ones pump just issued),
		// disarm it once the pipe is empty so an idle connection never
		// times out.
		if len(pc.inflight) > 0 {
			pc.respTimer.Reset(l.b.opts.ResponseTimeout)
		} else {
			pc.respTimer.Stop()
		}
	}
}

// progress fires incremental discovery for children whose DiscoverAt
// fraction has arrived.
func (l *load) progress(f *fetch, bodyBytes int) {
	if f.res.Size == 0 {
		return
	}
	frac := float64(bodyBytes) / float64(f.res.Size)
	for _, child := range l.children[f.idx] {
		ca := l.page.Resources[child].DiscoverAt
		if ca < 1.0 && frac >= ca && !l.childFired[child] {
			l.childFired[child] = true
			l.discover(child)
		}
	}
}

// resourceNetDone handles network completion: charge CPU, then discovery of
// remaining children, then completion accounting. A nil fetch records an
// unresolvable resource.
func (l *load) resourceNetDone(f *fetch) {
	if f == nil {
		l.result.Errors++
		l.complete()
		return
	}
	if f.doneNet {
		return
	}
	f.doneNet = true
	f.timing.Done = l.b.loop.Now()
	cpu := sim.Time(float64(f.res.CPU) * l.b.opts.CPUScale)
	l.runOnMain(cpu, func() {
		f.doneCPU = true
		// Children not yet discovered (DiscoverAt == 1.0, or progress was
		// coarse) are discovered after parse.
		for _, child := range l.children[f.idx] {
			if !l.childFired[child] {
				l.childFired[child] = true
				l.discover(child)
			}
		}
		l.complete()
	})
}

// complete decrements the outstanding-resource count and finishes the load.
func (l *load) complete() {
	l.pending--
	l.result.Resources++
	if l.pending > 0 || l.finished {
		return
	}
	l.finished = true
	l.result.PLT = l.b.loop.Now() - l.result.Start
	l.result.Timings = make([]ResourceTiming, 0, len(l.fetches))
	for i := range l.fetches {
		l.result.Timings = append(l.result.Timings, l.fetches[i].timing)
	}
	if sc := l.b.scratch; sc != nil {
		sc.wireBuf = l.wireBuf // keep the grown buffer for the next load
	}
	// Close all connections so the event loop drains. Every response has
	// been fully parsed by now (completion requires all bodies), so the
	// parsers go back to the scratch.
	for _, p := range l.poolOrder {
		for _, pc := range p.conns {
			if pc.parser != nil {
				l.sc.parsers = append(l.sc.parsers, pc.parser)
				pc.parser = nil
			}
			if l.b.opts.ResponseTimeout > 0 {
				pc.respTimer.Stop()
			}
			if !pc.dead {
				pc.tc.Close()
			}
		}
	}
	if l.done != nil {
		l.done(l.result)
	}
}
