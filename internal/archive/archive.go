// Package archive stores recorded HTTP exchanges — Mahimahi's on-disk
// format, reimagined: "At the end of a page load, a recorded folder
// contains a file for each request-response pair seen during that record
// session" (paper §2).
//
// A Site is the unit of recording (one page load); a corpus is a directory
// of site directories (the paper ships a 500-site corpus of the Alexa US Top 500).
// Each exchange remembers the server address it was recorded from, which is
// what lets ReplayShell reconstruct the multi-origin server topology.
package archive

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/httpx"
	"repro/internal/nsim"
)

// Exchange is one recorded request/response pair and the origin server it
// was captured from.
type Exchange struct {
	// Server is the origin's address and port as seen during recording.
	Server nsim.AddrPort
	// Scheme is "http" or "https" at record time.
	Scheme   string
	Request  *httpx.Request
	Response *httpx.Response
}

// Site is every exchange captured during one recording session (one page).
type Site struct {
	// Name is the site's label, conventionally the primary hostname.
	Name      string
	Exchanges []*Exchange
}

// Origins returns the distinct server (IP, port) pairs in the site, sorted
// for determinism. ReplayShell spawns one server per entry ("an Apache Web
// server for each distinct IP/port pair seen while recording").
func (s *Site) Origins() []nsim.AddrPort {
	seen := map[nsim.AddrPort]bool{}
	var out []nsim.AddrPort
	for _, e := range s.Exchanges {
		if !seen[e.Server] {
			seen[e.Server] = true
			out = append(out, e.Server)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr < out[j].Addr
		}
		return out[i].Port < out[j].Port
	})
	return out
}

// Hosts returns a hostname-to-address map derived from the recorded Host
// headers, for seeding the replay resolver. If a hostname appeared on
// several addresses, the first (in exchange order) wins, as it would have
// for the recorded browser's DNS.
func (s *Site) Hosts() map[string]nsim.Addr {
	out := map[string]nsim.Addr{}
	for _, e := range s.Exchanges {
		// Header.Get, not Request.Host: sites are shared read-only across
		// concurrent experiment cells and Host memoizes (mutates).
		h := e.Request.Header.Get("Host")
		if h == "" {
			continue
		}
		if _, ok := out[h]; !ok {
			out[h] = e.Server.Addr
		}
	}
	return out
}

// BytesTotal reports the summed response body bytes, a rough page weight.
func (s *Site) BytesTotal() int {
	n := 0
	for _, e := range s.Exchanges {
		n += len(e.Response.Body)
	}
	return n
}

// magic is the first line of the per-exchange file format.
const magic = "MAHIMAHI-GO 1"

// WriteExchange serializes one exchange in the toolkit's framed format:
// a small metadata header, then the raw request bytes, then the raw
// response bytes.
func WriteExchange(w io.Writer, e *Exchange) error {
	req := e.Request.Marshal()
	resp := e.Response.Marshal()
	if _, err := fmt.Fprintf(w, "%s\nserver: %s\nscheme: %s\nrequest-length: %d\nresponse-length: %d\n\n",
		magic, e.Server, e.Scheme, len(req), len(resp)); err != nil {
		return err
	}
	if _, err := w.Write(req); err != nil {
		return err
	}
	_, err := w.Write(resp)
	return err
}

// ErrBadFormat is returned when an archive file cannot be parsed.
var ErrBadFormat = errors.New("archive: bad file format")

// ReadExchange parses one exchange in the framed format.
func ReadExchange(r io.Reader) (*Exchange, error) {
	br := bufio.NewReader(r)
	line, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if strings.TrimSpace(line) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, strings.TrimSpace(line))
	}
	meta := map[string]string{}
	for {
		line, err = br.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("%w: truncated metadata", ErrBadFormat)
		}
		line = strings.TrimRight(line, "\n")
		if line == "" {
			break
		}
		k, v, ok := strings.Cut(line, ": ")
		if !ok {
			return nil, fmt.Errorf("%w: metadata line %q", ErrBadFormat, line)
		}
		meta[k] = v
	}
	reqLen, err1 := strconv.Atoi(meta["request-length"])
	respLen, err2 := strconv.Atoi(meta["response-length"])
	if err1 != nil || err2 != nil || reqLen < 0 || respLen < 0 {
		return nil, fmt.Errorf("%w: lengths %q/%q", ErrBadFormat, meta["request-length"], meta["response-length"])
	}
	server, err := parseAddrPort(meta["server"])
	if err != nil {
		return nil, fmt.Errorf("%w: server %q", ErrBadFormat, meta["server"])
	}

	rawReq := make([]byte, reqLen)
	if _, err := io.ReadFull(br, rawReq); err != nil {
		return nil, fmt.Errorf("%w: truncated request", ErrBadFormat)
	}
	rawResp := make([]byte, respLen)
	if _, err := io.ReadFull(br, rawResp); err != nil {
		return nil, fmt.Errorf("%w: truncated response", ErrBadFormat)
	}

	var rp httpx.RequestParser
	reqs, err := rp.Feed(rawReq)
	if err != nil || len(reqs) != 1 {
		return nil, fmt.Errorf("%w: stored request unparseable (%v)", ErrBadFormat, err)
	}
	var sp httpx.ResponseParser
	sp.ExpectMethod(reqs[0].Method)
	resps, err := sp.Feed(rawResp)
	if err != nil || len(resps) != 1 {
		return nil, fmt.Errorf("%w: stored response unparseable (%v)", ErrBadFormat, err)
	}
	scheme := meta["scheme"]
	if scheme == "" {
		scheme = "http"
	}
	reqs[0].Scheme = scheme
	return &Exchange{Server: server, Scheme: scheme, Request: reqs[0], Response: resps[0]}, nil
}

func parseAddrPort(s string) (nsim.AddrPort, error) {
	host, portStr, ok := strings.Cut(s, ":")
	if !ok {
		return nsim.AddrPort{}, fmt.Errorf("missing port in %q", s)
	}
	addr, err := nsim.ParseAddrErr(host)
	if err != nil {
		return nsim.AddrPort{}, err
	}
	port, err := strconv.Atoi(portStr)
	if err != nil || port < 0 || port > 65535 {
		return nsim.AddrPort{}, fmt.Errorf("bad port %q", portStr)
	}
	return nsim.AddrPort{Addr: addr, Port: uint16(port)}, nil
}

// SaveSite writes a site as a directory with one numbered file per
// exchange, mirroring Mahimahi's recorded folders.
func SaveSite(dir string, s *Site) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, e := range s.Exchanges {
		path := filepath.Join(dir, fmt.Sprintf("save.%06d", i))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := WriteExchange(f, e); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// LoadSite reads a site directory written by SaveSite.
func LoadSite(dir string) (*Site, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	site := &Site{Name: filepath.Base(dir)}
	var names []string
	for _, ent := range entries {
		if !ent.IsDir() && strings.HasPrefix(ent.Name(), "save.") {
			names = append(names, ent.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		e, err := ReadExchange(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		site.Exchanges = append(site.Exchanges, e)
	}
	return site, nil
}
