// Package webgen generates synthetic multi-origin web pages and corpora.
//
// The paper's experiments consume a corpus of 500 recorded sites (the Alexa
// US Top 500). The recordings themselves are not redistributable here, so
// webgen synthesizes a corpus whose *distributional* properties match what
// the paper reports (§4, "Multi-origin Web pages"):
//
//   - the median number of physical servers per site is 20;
//   - the 95th percentile is 51;
//   - exactly 9 sites use a single server.
//
// Resource counts and sizes follow heavy-tailed (log-normal) distributions
// with parameters in line with 2014-era HTTP Archive medians. Every page is
// a dependency graph: the root HTML discovers stylesheets, scripts, and
// images at given byte offsets; CSS discovers fonts and background images;
// JS discovers XHRs — which is what makes page load time sensitive to
// network conditions in the same way real pages are.
package webgen

import (
	"fmt"
	"sort"

	"repro/internal/nsim"
	"repro/internal/sim"
)

// ResourceType classifies a page resource.
type ResourceType int

// Resource types.
const (
	HTML ResourceType = iota
	CSS
	JS
	Image
	Font
	XHR
)

// String names the type.
func (t ResourceType) String() string {
	switch t {
	case HTML:
		return "html"
	case CSS:
		return "css"
	case JS:
		return "js"
	case Image:
		return "image"
	case Font:
		return "font"
	case XHR:
		return "xhr"
	}
	return "unknown"
}

// Resource is one fetchable object in a page's dependency graph.
type Resource struct {
	Scheme string // "http" or "https"
	Host   string
	Port   uint16
	Path   string
	Size   int // response body bytes
	Type   ResourceType
	// Parent is the index of the resource whose download discovers this
	// one; -1 for the root document.
	Parent int
	// DiscoverAt is the fraction of the parent's body after which this
	// resource becomes visible to the parser (e.g. 0.1 = a <link> tag near
	// the top of the document).
	DiscoverAt float64
	// CPU is the parse/execute time charged after the download completes,
	// before this resource's children are discovered.
	CPU sim.Time
}

// URL renders the resource's URL.
func (r *Resource) URL() string {
	return fmt.Sprintf("%s://%s%s", r.Scheme, r.Host, r.Path)
}

// Page is a synthetic web page: a dependency graph of resources plus the
// origin addresses its hostnames resolve to.
type Page struct {
	Name      string
	Resources []Resource
	// Origins maps each hostname to the server address that hosted it at
	// "record" time.
	Origins map[string]nsim.Addr
}

// Root returns the root document resource.
func (p *Page) Root() *Resource { return &p.Resources[0] }

// ServerCount reports the number of distinct origin addresses — the
// paper's "physical servers per website" metric.
func (p *Page) ServerCount() int {
	seen := map[nsim.Addr]bool{}
	for _, a := range p.Origins {
		seen[a] = true
	}
	return len(seen)
}

// TotalBytes reports the page weight (sum of resource sizes).
func (p *Page) TotalBytes() int {
	n := 0
	for i := range p.Resources {
		n += p.Resources[i].Size
	}
	return n
}

// Hosts returns the page's hostnames, sorted.
func (p *Page) Hosts() []string {
	out := make([]string, 0, len(p.Origins))
	for h := range p.Origins {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// Validate checks graph invariants: resource 0 is the root HTML, parents
// precede children, fractions lie in [0,1], sizes are positive, and every
// host has an origin address.
func (p *Page) Validate() error {
	if len(p.Resources) == 0 {
		return fmt.Errorf("webgen: page %q has no resources", p.Name)
	}
	if p.Resources[0].Parent != -1 || p.Resources[0].Type != HTML {
		return fmt.Errorf("webgen: page %q resource 0 is not a root HTML document", p.Name)
	}
	for i, r := range p.Resources {
		if i > 0 && (r.Parent < 0 || r.Parent >= i) {
			return fmt.Errorf("webgen: page %q resource %d has bad parent %d", p.Name, i, r.Parent)
		}
		if r.DiscoverAt < 0 || r.DiscoverAt > 1 {
			return fmt.Errorf("webgen: page %q resource %d DiscoverAt %v", p.Name, i, r.DiscoverAt)
		}
		if r.Size <= 0 {
			return fmt.Errorf("webgen: page %q resource %d size %d", p.Name, i, r.Size)
		}
		if _, ok := p.Origins[r.Host]; !ok {
			return fmt.Errorf("webgen: page %q host %q has no origin", p.Name, r.Host)
		}
	}
	return nil
}

// Content deterministically materializes a resource's body bytes. The
// pattern embeds the URL so recorded archives are self-describing; byte
// content does not affect any measurement.
//
// After the header, byte i is 'a'+i%26. One period is written at its
// absolute offsets and then doubled with copy; every copy moves a multiple
// of 26 bytes, so each byte keeps the letter of its own offset.
func Content(r *Resource) []byte {
	header := fmt.Sprintf("<!-- %s %s -->", r.Type, r.URL())
	body := make([]byte, r.Size)
	n := copy(body, header)
	fill := body[n:]
	for i := range min(26, len(fill)) {
		fill[i] = byte('a' + (n+i)%26)
	}
	for done := 26; done < len(fill); done *= 2 {
		copy(fill[done:], fill[:done])
	}
	return body
}
