package recordshell

import (
	"bytes"
	"testing"

	"repro/internal/archive"
	"repro/internal/browser"
	"repro/internal/inet"
	"repro/internal/nsim"
	"repro/internal/replayshell"
	"repro/internal/shells"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/webgen"
)

var (
	appAddr   = nsim.ParseAddr("100.64.0.2")
	proxyAddr = nsim.ParseAddr("100.64.0.1")
)

func testPage() *webgen.Page {
	return webgen.GeneratePage(sim.NewRand(21), webgen.Profile{
		Name: "www.rec.com", Servers: 6, Resources: 25,
		HTMLSize: 30 << 10, MedianObject: 8 << 10, SigmaObject: 0.8,
		CPUPerKB: 50 * sim.Microsecond, HTTPSShare: 0.3,
	})
}

// recordOnce loads the page through RecordShell against the live web and
// returns the recorded site plus the observed live PLT.
func recordOnce(t *testing.T, page *webgen.Page) (*Shell, browser.Result) {
	t.Helper()
	loop := sim.NewLoop()
	network := nsim.NewNetwork(loop)
	web, err := inet.New(network, inet.Config{
		Page: page, Seed: 1,
		ThinkMedian: 5 * sim.Millisecond, ThinkSigma: 0.3,
		OriginSpread: 10 * sim.Millisecond, DNSLatency: 5 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := New(network, web.NS, proxyAddr, page.Name)
	st := shells.Build(network, rec.NS, appAddr, shells.NewDelayShell(10*sim.Millisecond))
	b := browser.New(tcpsim.NewStack(st.App), web.Resolver, appAddr, browser.DefaultOptions())
	var result browser.Result
	got := false
	b.Load(page, func(r browser.Result) { result = r; got = true })
	loop.Run()
	if !got {
		t.Fatal("recorded load never completed")
	}
	return rec, result
}

func TestRecordCapturesAllExchanges(t *testing.T) {
	page := testPage()
	rec, result := recordOnce(t, page)
	if result.Errors != 0 {
		t.Fatalf("live load errors: %d", result.Errors)
	}
	if len(rec.Site.Exchanges) != len(page.Resources) {
		t.Fatalf("recorded %d exchanges, want %d", len(rec.Site.Exchanges), len(page.Resources))
	}
	if rec.Intercepted == 0 {
		t.Fatal("proxy intercepted no connections")
	}
}

func TestRecordPreservesOrigins(t *testing.T) {
	page := testPage()
	rec, _ := recordOnce(t, page)
	// The recorded origin set must equal the page's origin set — this is
	// the property that lets ReplayShell rebuild the multi-origin
	// topology.
	want := map[nsim.Addr]bool{}
	for _, a := range page.Origins {
		want[a] = true
	}
	got := map[nsim.Addr]bool{}
	for _, o := range rec.Site.Origins() {
		got[o.Addr] = true
	}
	if len(got) != len(want) {
		t.Fatalf("recorded %d distinct origins, want %d", len(got), len(want))
	}
	for a := range want {
		if !got[a] {
			t.Fatalf("origin %s missing from recording", a)
		}
	}
}

func TestRecordPreservesBytes(t *testing.T) {
	page := testPage()
	rec, _ := recordOnce(t, page)
	byURL := map[string]int{}
	for _, e := range rec.Site.Exchanges {
		byURL[e.Request.Host()+e.Request.Target] = len(e.Response.Body)
	}
	for i := range page.Resources {
		r := &page.Resources[i]
		if got := byURL[r.Host+r.Path]; got != r.Size {
			t.Fatalf("resource %s recorded %d bytes, want %d", r.URL(), got, r.Size)
		}
	}
}

// The browser meters bodies without reading them, so a corrupted body
// would not show in any load result. Recording is a full-body path: the
// live web serves webgen.Content, and the proxy's parsers must deliver it
// into the archive byte for byte.
func TestRecordedBodiesMatchContent(t *testing.T) {
	page := testPage()
	rec, _ := recordOnce(t, page)
	byURL := map[string][]byte{}
	for _, e := range rec.Site.Exchanges {
		byURL[e.Request.Host()+e.Request.Target] = e.Response.Body
	}
	for i := range page.Resources {
		r := &page.Resources[i]
		got, ok := byURL[r.Host+r.Path]
		if !ok {
			t.Fatalf("resource %s not recorded", r.URL())
		}
		if want := webgen.Content(r); !bytes.Equal(got, want) {
			t.Fatalf("resource %s: recorded body differs from webgen.Content", r.URL())
		}
	}
}

func TestRecordMarksHTTPSScheme(t *testing.T) {
	page := testPage()
	rec, _ := recordOnce(t, page)
	https, http := 0, 0
	for _, e := range rec.Site.Exchanges {
		switch e.Scheme {
		case "https":
			https++
			if e.Server.Port != 443 {
				t.Fatalf("https exchange on port %d", e.Server.Port)
			}
		case "http":
			http++
		default:
			t.Fatalf("exchange scheme %q", e.Scheme)
		}
	}
	if https == 0 || http == 0 {
		t.Fatalf("scheme mix https=%d http=%d, want both", https, http)
	}
}

func TestRecordThenReplayRoundTrip(t *testing.T) {
	// The toolkit's flagship property: a site recorded through RecordShell
	// replays completely through ReplayShell with zero misses.
	page := testPage()
	rec, _ := recordOnce(t, page)

	loop := sim.NewLoop()
	network := nsim.NewNetwork(loop)
	replay, err := replayshell.New(network, replayshell.Config{
		Site: rec.Site, DNSLatency: sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := shells.Build(network, replay.NS, appAddr, shells.NewDelayShell(10*sim.Millisecond))
	b := browser.New(tcpsim.NewStack(st.App), replay.Resolver, appAddr, browser.DefaultOptions())
	var result browser.Result
	b.Load(page, func(r browser.Result) { result = r })
	loop.Run()
	if result.Resources != len(page.Resources) {
		t.Fatalf("replayed %d resources, want %d", result.Resources, len(page.Resources))
	}
	if result.Errors != 0 {
		t.Fatalf("replay errors: %d", result.Errors)
	}
	exact, prefix, miss := replay.Matcher.Stats()
	if miss != 0 {
		t.Fatalf("replay misses: %d (exact=%d prefix=%d)", miss, exact, prefix)
	}
	if result.Bytes != page.TotalBytes() {
		t.Fatalf("replayed %d bytes, want %d", result.Bytes, page.TotalBytes())
	}
}

func TestNonHTTPTrafficPassesThrough(t *testing.T) {
	// Traffic to other ports must transit the record namespace untouched.
	loop := sim.NewLoop()
	network := nsim.NewNetwork(loop)
	world := network.NewNamespace("world")
	worldAddr := nsim.ParseAddr("9.9.9.9")
	world.AddAddress(worldAddr)
	rec := New(network, world, proxyAddr, "x")
	st := shells.Build(network, rec.NS, appAddr)

	got := false
	world.Bind(nsim.AddrPort{Addr: worldAddr, Port: 9999}, func(*nsim.Datagram) { got = true })
	st.App.Send(&nsim.Datagram{
		Src: nsim.AddrPort{Addr: appAddr, Port: 1},
		Dst: nsim.AddrPort{Addr: worldAddr, Port: 9999}, Size: 64,
	})
	loop.Run()
	if !got {
		t.Fatal("non-HTTP datagram did not pass through the record namespace")
	}
	if rec.Intercepted != 0 {
		t.Fatal("non-HTTP traffic was intercepted")
	}
}

func TestRecordedSiteSurvivesDiskRoundTrip(t *testing.T) {
	page := testPage()
	rec, _ := recordOnce(t, page)
	dir := t.TempDir() + "/" + page.Name
	if err := archive.SaveSite(dir, rec.Site); err != nil {
		t.Fatal(err)
	}
	back, err := archive.LoadSite(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Exchanges) != len(rec.Site.Exchanges) {
		t.Fatalf("disk round trip: %d exchanges, want %d",
			len(back.Exchanges), len(rec.Site.Exchanges))
	}
	for i, e := range back.Exchanges {
		orig := rec.Site.Exchanges[i]
		if e.Server != orig.Server || e.Scheme != orig.Scheme {
			t.Fatalf("exchange %d metadata changed", i)
		}
		if string(e.Response.Body) != string(orig.Response.Body) {
			t.Fatalf("exchange %d body changed", i)
		}
	}
}
