package replayshell

import (
	"testing"

	"repro/internal/httpx"
	"repro/internal/nsim"
	"repro/internal/shells"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/webgen"
)

var appAddr = nsim.ParseAddr("100.64.0.2")

func testSetup(t *testing.T, cfg Config) (*sim.Loop, *Shell, *tcpsim.Stack) {
	t.Helper()
	loop := sim.NewLoop()
	network := nsim.NewNetwork(loop)
	sh, err := New(network, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := shells.Build(network, sh.NS, appAddr)
	return loop, sh, tcpsim.NewStack(st.App)
}

func testPage() *webgen.Page {
	return webgen.GeneratePage(sim.NewRand(17), webgen.Profile{
		Name: "www.rs.com", Servers: 5, Resources: 15,
		HTMLSize: 10 << 10, MedianObject: 4 << 10, SigmaObject: 0.5,
		CPUPerKB: 10 * sim.Microsecond, HTTPSShare: 0.3,
	})
}

func TestEmptySiteRejected(t *testing.T) {
	network := nsim.NewNetwork(sim.NewLoop())
	if _, err := New(network, Config{}); err == nil {
		t.Fatal("nil site accepted")
	}
}

func TestOriginsOwnedAndBound(t *testing.T) {
	page := testPage()
	site := webgen.Materialize(page)
	_, sh, _ := testSetup(t, Config{Site: site})
	if len(sh.Origins()) != len(site.Origins()) {
		t.Fatalf("bound %d origins, want %d", len(sh.Origins()), len(site.Origins()))
	}
	for _, o := range site.Origins() {
		if !sh.NS.OwnsAddress(o.Addr) {
			t.Fatalf("namespace does not own %s", o.Addr)
		}
	}
}

// lookup resolves host through the shell's resolver on a scratch loop.
func lookup(sh *Shell, host string) (addr nsim.Addr, err error) {
	loop := sim.NewLoop()
	sh.Resolver.Resolve(loop, host, func(a nsim.Addr, e error) { addr, err = a, e })
	loop.Run()
	return addr, err
}

func TestResolverCoversAllHosts(t *testing.T) {
	page := testPage()
	site := webgen.Materialize(page)
	_, sh, _ := testSetup(t, Config{Site: site})
	for host, addr := range site.Hosts() {
		got, err := lookup(sh, host)
		if err != nil || got != addr {
			t.Fatalf("resolver %s -> %v, %v; want %v", host, got, err, addr)
		}
	}
}

// rawGET opens a TCP connection and issues one GET, returning the parsed
// response through the callback.
func rawGET(t *testing.T, loop *sim.Loop, cs *tcpsim.Stack, origin nsim.AddrPort, host, target string, got func(*httpx.Response)) {
	t.Helper()
	conn, err := cs.Dial(appAddr, origin)
	if err != nil {
		t.Fatal(err)
	}
	parser := &httpx.ResponseParser{}
	parser.ExpectMethod("GET")
	conn.OnData(func(data []byte) {
		resps, err := parser.Feed(data)
		if err != nil {
			t.Errorf("response parse: %v", err)
			return
		}
		for _, r := range resps {
			got(r)
		}
	})
	req := &httpx.Request{Method: "GET", Target: target, Proto: "HTTP/1.1", Scheme: "http"}
	req.Header.Add("Host", host)
	req.Header.Add("User-Agent", "mahimahi-go-browser/1.0")
	req.Header.Add("Accept", "*/*")
	conn.OnEstablished(func() { conn.Write(req.Marshal()) })
}

func TestServeRecordedResponse(t *testing.T) {
	page := testPage()
	site := webgen.Materialize(page)
	loop, sh, cs := testSetup(t, Config{Site: site})
	e := site.Exchanges[0]
	var resp *httpx.Response
	rawGET(t, loop, cs, e.Server, e.Request.Host(), e.Request.Target,
		func(r *httpx.Response) { resp = r })
	loop.Run()
	if resp == nil {
		t.Fatal("no response")
	}
	if resp.StatusCode != 200 || len(resp.Body) != len(e.Response.Body) {
		t.Fatalf("response %d, %d bytes; want 200, %d", resp.StatusCode, len(resp.Body), len(e.Response.Body))
	}
	if sh.RequestsServed != 1 {
		t.Fatalf("RequestsServed = %d", sh.RequestsServed)
	}
}

func TestServe404OnMiss(t *testing.T) {
	page := testPage()
	site := webgen.Materialize(page)
	loop, _, cs := testSetup(t, Config{Site: site})
	e := site.Exchanges[0]
	var resp *httpx.Response
	rawGET(t, loop, cs, e.Server, e.Request.Host(), "/definitely/not/recorded",
		func(r *httpx.Response) { resp = r })
	loop.Run()
	if resp == nil || resp.StatusCode != 404 {
		t.Fatalf("miss response = %+v, want 404", resp)
	}
}

func TestAnyServerServesEntireSite(t *testing.T) {
	// "All browser requests are handled by one of ReplayShell's servers,
	// each of which can access the entire recorded content" — a request
	// for host A's content sent to host B's server must still match,
	// because matching is by Host header, not by server address.
	page := testPage()
	site := webgen.Materialize(page)
	loop, _, cs := testSetup(t, Config{Site: site})
	// Find two exchanges on different servers but the same scheme (http).
	var a, b int = -1, -1
	for i, e := range site.Exchanges {
		if e.Scheme != "http" {
			continue
		}
		if a == -1 {
			a = i
		} else if e.Server != site.Exchanges[a].Server && e.Server.Port == 80 {
			b = i
			break
		}
	}
	if a == -1 || b == -1 {
		t.Skip("page lacks two distinct http origins")
	}
	want := site.Exchanges[a]
	other := site.Exchanges[b]
	var resp *httpx.Response
	rawGET(t, loop, cs, other.Server, want.Request.Host(), want.Request.Target,
		func(r *httpx.Response) { resp = r })
	loop.Run()
	if resp == nil || resp.StatusCode != 200 {
		t.Fatalf("cross-server request failed: %+v", resp)
	}
}

func TestSingleServerModeOneAddress(t *testing.T) {
	page := testPage()
	site := webgen.Materialize(page)
	_, sh, _ := testSetup(t, Config{Site: site, SingleServer: true})
	addrs := map[nsim.Addr]bool{}
	for _, o := range sh.Origins() {
		addrs[o.Addr] = true
	}
	if len(addrs) != 1 {
		t.Fatalf("single-server mode bound %d addresses", len(addrs))
	}
	// All hosts resolve to the single address.
	for host := range site.Hosts() {
		got, err := lookup(sh, host)
		if err != nil {
			t.Fatal(err)
		}
		if !addrs[got] {
			t.Fatalf("host %s resolves to %v, not the single server", host, got)
		}
	}
}

func TestSingleServerExplicitAddr(t *testing.T) {
	page := testPage()
	site := webgen.Materialize(page)
	want := nsim.ParseAddr("203.0.113.7")
	network := nsim.NewNetwork(sim.NewLoop())
	sh, err := New(network, Config{Site: site, SingleServer: true, SingleAddr: want})
	if err != nil {
		t.Fatal(err)
	}
	if sh.Origins()[0].Addr != want {
		t.Fatalf("single addr = %v, want %v", sh.Origins()[0].Addr, want)
	}
}

func TestRequestCPUSerializesOnServer(t *testing.T) {
	page := testPage()
	site := webgen.Materialize(page)
	loop, _, cs := testSetup(t, Config{Site: site, RequestCPU: 10 * sim.Millisecond})
	e := site.Exchanges[0]
	var times []sim.Time
	// Two back-to-back requests on separate connections to the same
	// server: responses must be ~10ms apart (serialized CPU).
	for i := 0; i < 2; i++ {
		rawGET(t, loop, cs, e.Server, e.Request.Host(), e.Request.Target,
			func(*httpx.Response) { times = append(times, loop.Now()) })
	}
	loop.Run()
	if len(times) != 2 {
		t.Fatalf("got %d responses", len(times))
	}
	gap := times[1] - times[0]
	if gap < 9*sim.Millisecond {
		t.Fatalf("responses %v apart, want >=10ms (serialized)", gap)
	}
}

func TestNormalizeAddsContentLength(t *testing.T) {
	resp := &httpx.Response{Proto: "HTTP/1.1", StatusCode: 200, Reason: "OK", Body: []byte("abc")}
	out := normalize(resp)
	if out.Header.Get("Content-Length") != "3" {
		t.Fatalf("normalize did not set content-length: %+v", out.Header)
	}
	// Already-correct responses are returned as-is (no clone).
	if again := normalize(out); again != out {
		t.Fatal("normalize cloned an already-normalized response")
	}
}
