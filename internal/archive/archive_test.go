package archive

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/httpx"
	"repro/internal/nsim"
)

func mkExchange(host, target string, addr string, port uint16, body string) *Exchange {
	req := &httpx.Request{Method: "GET", Target: target, Proto: "HTTP/1.1", Scheme: "http"}
	req.Header.Add("Host", host)
	resp := &httpx.Response{Proto: "HTTP/1.1", StatusCode: 200, Reason: "OK"}
	resp.Header.Add("Content-Length", strconv.Itoa(len(body)))
	resp.Body = []byte(body)
	return &Exchange{
		Server:   nsim.AddrPort{Addr: nsim.ParseAddr(addr), Port: port},
		Scheme:   "http",
		Request:  req,
		Response: resp,
	}
}

func TestExchangeRoundTrip(t *testing.T) {
	e := mkExchange("example.com", "/page?a=1", "93.184.216.34", 80, "hello body")
	var buf bytes.Buffer
	if err := WriteExchange(&buf, e); err != nil {
		t.Fatal(err)
	}
	got, err := ReadExchange(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Server != e.Server || got.Scheme != "http" {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	if got.Request.Target != "/page?a=1" || got.Request.Host() != "example.com" {
		t.Fatalf("request mismatch: %+v", got.Request)
	}
	if string(got.Response.Body) != "hello body" {
		t.Fatalf("response body = %q", got.Response.Body)
	}
}

func TestReadExchangeErrors(t *testing.T) {
	cases := []string{
		"",
		"WRONG MAGIC\n\n",
		"MAHIMAHI-GO 1\nserver: nonsense\nrequest-length: 1\nresponse-length: 1\n\nxy",
		"MAHIMAHI-GO 1\nserver: 1.2.3.4:80\nrequest-length: -1\nresponse-length: 1\n\n",
		"MAHIMAHI-GO 1\nserver: 1.2.3.4:80\nrequest-length: 99\nresponse-length: 99\n\nshort",
		"MAHIMAHI-GO 1\nbadline\n\n",
	}
	for i, raw := range cases {
		if _, err := ReadExchange(strings.NewReader(raw)); err == nil {
			t.Errorf("case %d: accepted malformed archive", i)
		} else if !errors.Is(err, ErrBadFormat) {
			t.Errorf("case %d: err = %v, want ErrBadFormat", i, err)
		}
	}
}

func TestSiteOriginsSortedDistinct(t *testing.T) {
	s := &Site{Name: "test", Exchanges: []*Exchange{
		mkExchange("b.com", "/", "5.5.5.5", 80, "x"),
		mkExchange("a.com", "/", "1.1.1.1", 443, "x"),
		mkExchange("a.com", "/2", "1.1.1.1", 443, "x"), // duplicate origin
		mkExchange("c.com", "/", "1.1.1.1", 80, "x"),   // same addr, new port
	}}
	origins := s.Origins()
	if len(origins) != 3 {
		t.Fatalf("Origins = %v, want 3 distinct", origins)
	}
	for i := 1; i < len(origins); i++ {
		prev, cur := origins[i-1], origins[i]
		if prev.Addr > cur.Addr || (prev.Addr == cur.Addr && prev.Port >= cur.Port) {
			t.Fatalf("Origins not sorted: %v", origins)
		}
	}
}

func TestSiteHostsFirstWins(t *testing.T) {
	s := &Site{Exchanges: []*Exchange{
		mkExchange("cdn.com", "/", "1.1.1.1", 80, "x"),
		mkExchange("cdn.com", "/2", "2.2.2.2", 80, "x"), // same host, new addr: ignored
	}}
	hosts := s.Hosts()
	if hosts["cdn.com"] != nsim.ParseAddr("1.1.1.1") {
		t.Fatalf("Hosts = %v", hosts)
	}
}

func TestBytesTotal(t *testing.T) {
	s := &Site{Exchanges: []*Exchange{
		mkExchange("a", "/", "1.1.1.1", 80, "12345"),
		mkExchange("a", "/2", "1.1.1.1", 80, "123"),
	}}
	if s.BytesTotal() != 8 {
		t.Fatalf("BytesTotal = %d, want 8", s.BytesTotal())
	}
}

func TestSiteSaveLoadRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "www.example.com")
	s := &Site{Name: "www.example.com", Exchanges: []*Exchange{
		mkExchange("www.example.com", "/", "93.184.216.34", 80, "<html>index</html>"),
		mkExchange("cdn.example.com", "/app.js", "151.101.1.1", 443, "console.log(1)"),
		mkExchange("www.example.com", "/style.css", "93.184.216.34", 80, "body{}"),
	}}
	if err := SaveSite(dir, s); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSite(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "www.example.com" {
		t.Fatalf("Name = %q", got.Name)
	}
	if len(got.Exchanges) != 3 {
		t.Fatalf("loaded %d exchanges, want 3", len(got.Exchanges))
	}
	// Order preserved.
	if got.Exchanges[1].Request.Target != "/app.js" {
		t.Fatalf("order not preserved: %+v", got.Exchanges[1].Request)
	}
	if got.Exchanges[1].Server.Port != 443 {
		t.Fatalf("port lost: %+v", got.Exchanges[1].Server)
	}
}

// corpus is a set of recorded sites, saved one site directory each.
type corpus struct {
	Sites []*Site
}

// saveCorpus writes each site into its own subdirectory of dir.
func saveCorpus(dir string, c *corpus) error {
	for _, s := range c.Sites {
		if err := SaveSite(filepath.Join(dir, s.Name), s); err != nil {
			return err
		}
	}
	return nil
}

// loadCorpus reads every site subdirectory of dir, sorted by name.
func loadCorpus(dir string) (*corpus, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, ent := range entries {
		if ent.IsDir() {
			names = append(names, ent.Name())
		}
	}
	sort.Strings(names)
	c := &corpus{}
	for _, name := range names {
		s, err := LoadSite(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		c.Sites = append(c.Sites, s)
	}
	return c, nil
}

func TestCorpusSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := &corpus{Sites: []*Site{
		{Name: "bbb.com", Exchanges: []*Exchange{mkExchange("bbb.com", "/", "2.2.2.2", 80, "b")}},
		{Name: "aaa.com", Exchanges: []*Exchange{mkExchange("aaa.com", "/", "1.1.1.1", 80, "a")}},
	}}
	if err := saveCorpus(dir, c); err != nil {
		t.Fatal(err)
	}
	got, err := loadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sites) != 2 {
		t.Fatalf("loaded %d sites", len(got.Sites))
	}
	// Sorted by name.
	if got.Sites[0].Name != "aaa.com" || got.Sites[1].Name != "bbb.com" {
		t.Fatalf("sites = %v, %v", got.Sites[0].Name, got.Sites[1].Name)
	}
}

func TestLoadSiteMissingDir(t *testing.T) {
	if _, err := LoadSite(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing dir accepted")
	}
}

func TestExchangeWithChunkedRecordedResponse(t *testing.T) {
	// A response recorded from a chunked origin is stored re-framed; verify
	// the round trip preserves the body.
	var sp httpx.ResponseParser
	sp.ExpectMethod("GET")
	resps, err := sp.Feed([]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nchunk\r\n0\r\n\r\n"))
	if err != nil || len(resps) != 1 {
		t.Fatal(err)
	}
	req := &httpx.Request{Method: "GET", Target: "/", Proto: "HTTP/1.1", Scheme: "http"}
	req.Header.Add("Host", "h")
	e := &Exchange{
		Server: nsim.AddrPort{Addr: nsim.ParseAddr("1.1.1.1"), Port: 80}, Scheme: "http",
		Request: req, Response: resps[0],
	}
	var buf bytes.Buffer
	if err := WriteExchange(&buf, e); err != nil {
		t.Fatal(err)
	}
	got, err := ReadExchange(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Response.Body) != "chunk" {
		t.Fatalf("body = %q", got.Response.Body)
	}
}
