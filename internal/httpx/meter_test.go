package httpx

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// parsed is what a consumer can observe of one response besides its body
// bytes.
type parsed struct {
	Status        int
	BodyLen       int
	ContentLength string
	Chunked       bool
}

// parseStream feeds wire to a parser in seg-byte pieces (0 = one piece)
// after announcing methods, and returns every response plus the first
// error.
func parseStream(meter bool, methods []string, wire []byte, seg int) ([]*Response, error) {
	p := &ResponseParser{MeterBodies: meter}
	for _, m := range methods {
		p.ExpectMethod(m)
	}
	if seg <= 0 {
		seg = len(wire) + 1
	}
	var out []*Response
	for len(wire) > 0 {
		n := min(seg, len(wire))
		resps, err := p.Feed(wire[:n])
		out = append(out, resps...)
		if err != nil {
			return out, err
		}
		wire = wire[n:]
	}
	return out, nil
}

func observe(resps []*Response) []parsed {
	var out []parsed
	for _, r := range resps {
		out = append(out, parsed{
			Status:        r.StatusCode,
			BodyLen:       len(r.Body),
			ContentLength: r.Header.Get("Content-Length"),
			Chunked:       r.Header.Has("Transfer-Encoding"),
		})
	}
	return out
}

func chunkedWire(body string, chunk int) string {
	var b strings.Builder
	b.WriteString("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n")
	for i := 0; i < len(body); i += chunk {
		end := min(i+chunk, len(body))
		fmt.Fprintf(&b, "%x;ext=1\r\n%s\r\n", end-i, body[i:end])
	}
	b.WriteString("0\r\nX-Trailer: t\r\n\r\n")
	return b.String()
}

func clWire(status int, body string) string {
	return fmt.Sprintf("HTTP/1.1 %d %s\r\nContent-Length: %d\r\n\r\n%s", status, StatusText(status), len(body), body)
}

var meterCases = []struct {
	name    string
	methods []string
	wire    string
	bodies  []string // full-mode bodies, in order
}{
	{
		name: "content-length", methods: []string{"GET"},
		wire:   clWire(200, strings.Repeat("0123456789", 500)),
		bodies: []string{strings.Repeat("0123456789", 500)},
	},
	{
		name: "chunked", methods: []string{"GET"},
		wire:   chunkedWire(strings.Repeat("abc", 3000), 700),
		bodies: []string{strings.Repeat("abc", 3000)},
	},
	{
		name: "chunked-empty", methods: []string{"GET"},
		wire:   chunkedWire("", 1),
		bodies: []string{""},
	},
	{
		name: "pipelined", methods: []string{"GET", "GET", "GET", "GET", "GET"},
		wire: clWire(200, "first") + chunkedWire("second-body", 4) + clWire(404, "") +
			clWire(200, strings.Repeat("x", 3000)) + clWire(500, "oops"),
		bodies: []string{"first", "second-body", "", strings.Repeat("x", 3000), "oops"},
	},
	{
		name: "head", methods: []string{"HEAD", "GET", "HEAD"},
		wire: "HTTP/1.1 200 OK\r\nContent-Length: 1000\r\n\r\n" + clWire(200, "after-head") +
			"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
		bodies: []string{"", "after-head", ""},
	},
	{
		name: "bodyless-status", methods: []string{"GET", "GET", "GET", "GET"},
		wire: "HTTP/1.1 204 No Content\r\nContent-Length: 50\r\n\r\n" +
			"HTTP/1.1 304 Not Modified\r\nETag: \"e\"\r\n\r\n" +
			"HTTP/1.1 100 Continue\r\n\r\n" + clWire(200, "payload"),
		bodies: []string{"", "", "", "payload"},
	},
	{
		// Read-until-close framing is not produced by this toolkit's
		// servers: an unframed response has no body in either mode.
		name: "close-delimited", methods: []string{"GET", "GET"},
		wire:   "HTTP/1.1 200 OK\r\nServer: s\r\n\r\n" + clWire(200, "next"),
		bodies: []string{"", "next"},
	},
}

// TestMeteringMatchesFullParse checks that metering mode reports the same
// responses, statuses, body lengths and re-framed headers as a full parse
// for every framing, at every segmentation, while full mode still
// delivers the exact bodies.
func TestMeteringMatchesFullParse(t *testing.T) {
	for _, tc := range meterCases {
		for _, seg := range []int{0, 1, 7, 1460} {
			full, err := parseStream(false, tc.methods, []byte(tc.wire), seg)
			if err != nil {
				t.Fatalf("%s seg %d: full: %v", tc.name, seg, err)
			}
			meter, err := parseStream(true, tc.methods, []byte(tc.wire), seg)
			if err != nil {
				t.Fatalf("%s seg %d: meter: %v", tc.name, seg, err)
			}
			if len(full) != len(tc.bodies) {
				t.Fatalf("%s seg %d: %d responses, want %d", tc.name, seg, len(full), len(tc.bodies))
			}
			for i, r := range full {
				if string(r.Body) != tc.bodies[i] {
					t.Fatalf("%s seg %d: full body %d = %q, want %q", tc.name, seg, i, r.Body, tc.bodies[i])
				}
			}
			f, m := observe(full), observe(meter)
			if fmt.Sprint(f) != fmt.Sprint(m) {
				t.Fatalf("%s seg %d:\n full %v\nmeter %v", tc.name, seg, f, m)
			}
		}
	}
}

// TestMeteringCopiesNoBodyBytes checks that metered bodies are windows
// onto the parser's shared zero buffer, never wire content, and that the
// window cannot be appended into.
func TestMeteringCopiesNoBodyBytes(t *testing.T) {
	for _, tc := range meterCases {
		resps, err := parseStream(true, tc.methods, []byte(tc.wire), 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, r := range resps {
			if len(r.Body) != len(tc.bodies[i]) {
				t.Fatalf("%s response %d: body length %d, want %d", tc.name, i, len(r.Body), len(tc.bodies[i]))
			}
			if len(r.Body) > 0 && !bytes.Equal(r.Body, make([]byte, len(r.Body))) {
				t.Fatalf("%s response %d: metered body carries wire bytes %q", tc.name, i, r.Body)
			}
			if cap(r.Body) != len(r.Body) {
				t.Fatalf("%s response %d: metered body has spare capacity %d", tc.name, i, cap(r.Body)-len(r.Body))
			}
		}
	}
}

// FuzzMeteringMatchesFull feeds arbitrary bytes, split at an arbitrary
// point, to a full and a metering parser: both must agree on every
// response's status, body length and framing headers and on whether the
// stream is malformed.
func FuzzMeteringMatchesFull(f *testing.F) {
	for _, tc := range meterCases {
		f.Add([]byte(tc.wire), uint16(len(tc.wire)/3), tc.methods[0] == "HEAD")
	}
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nab"), uint16(5), false)
	f.Add([]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nabX\r\n"), uint16(9), false)
	f.Fuzz(func(t *testing.T, wire []byte, cut uint16, head bool) {
		methods := []string{"GET", "GET", "GET"}
		if head {
			methods[0] = "HEAD"
		}
		run := func(meter bool) ([]parsed, error) {
			p := &ResponseParser{MeterBodies: meter}
			for _, m := range methods {
				p.ExpectMethod(m)
			}
			i := int(cut) % (len(wire) + 1)
			r1, err := p.Feed(wire[:i])
			if err != nil {
				return observe(r1), err
			}
			r2, err := p.Feed(wire[i:])
			return observe(append(r1, r2...)), err
		}
		f, ferr := run(false)
		m, merr := run(true)
		if (ferr == nil) != (merr == nil) || fmt.Sprint(f) != fmt.Sprint(m) {
			t.Fatalf("full %v (err %v)\nmeter %v (err %v)", f, ferr, m, merr)
		}
	})
}

// BenchmarkResponseParse parses a pipelined batch of page-sized responses
// (one 60 KB document, nine 12 KB objects) fed in 1460-byte segments, in
// each mode: full copies every body, meter only counts it.
func BenchmarkResponseParse(b *testing.B) {
	var wire []byte
	methods := 10
	wire = append(wire, clWire(200, strings.Repeat("d", 60<<10))...)
	for i := 1; i < methods; i++ {
		wire = append(wire, clWire(200, strings.Repeat("o", 12<<10))...)
	}
	for _, mode := range []struct {
		name  string
		meter bool
	}{{"full", false}, {"meter", true}} {
		b.Run(mode.name, func(b *testing.B) {
			p := &ResponseParser{MeterBodies: mode.meter}
			b.SetBytes(int64(len(wire)))
			b.ReportAllocs()
			for b.Loop() {
				p.Reset()
				for range methods {
					p.ExpectMethod("GET")
				}
				got := 0
				for i := 0; i < len(wire); i += 1460 {
					resps, err := p.Feed(wire[i:min(i+1460, len(wire))])
					if err != nil {
						b.Fatal(err)
					}
					got += len(resps)
				}
				if got != methods {
					b.Fatalf("parsed %d responses, want %d", got, methods)
				}
			}
		})
	}
}
