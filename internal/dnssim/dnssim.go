// Package dnssim provides per-namespace DNS resolution.
//
// Mahimahi criticizes web-page-replay for modifying DNS resolution on the
// host machine, which "affects all traffic from the host machine" (paper
// §4). Mahimahi instead gives each namespace its own resolution rules:
// inside ReplayShell, every recorded hostname resolves to the IP it was
// recorded at, and those IPs exist only inside the shell.
//
// dnssim models that: a Resolver is private to a shell, seeded from the
// recorded archive, and lookups cost a configurable (simulated) latency so
// page-load models account for DNS time like a real browser does.
package dnssim

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/nsim"
	"repro/internal/sim"
)

// ErrNXDomain is returned for names with no records.
var ErrNXDomain = errors.New("dnssim: no such host")

// Resolver maps hostnames to addresses within one namespace. It is safe for
// concurrent use (the browser model issues lookups from multiple simulated
// connections).
type Resolver struct {
	mu      sync.RWMutex
	zones   map[string]nsim.Addr
	latency sim.Time
	// cache models the OS resolver cache: after the first lookup of a name,
	// subsequent lookups are free.
	cache   map[string]bool
	queries uint64
	hits    uint64
}

// NewResolver creates an empty resolver whose uncached lookups take the
// given simulated latency.
func NewResolver(latency sim.Time) *Resolver {
	return &Resolver{
		zones:   make(map[string]nsim.Addr),
		cache:   make(map[string]bool),
		latency: latency,
	}
}

// Add installs or replaces an A record.
func (r *Resolver) Add(host string, addr nsim.Addr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.zones[host] = addr
}

// Len reports the number of records.
func (r *Resolver) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.zones)
}

// Hosts returns all registered hostnames, sorted.
func (r *Resolver) Hosts() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	hosts := make([]string, 0, len(r.zones))
	for h := range r.zones {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	return hosts
}

// Resolve looks up host, scheduling done on the loop after the resolver
// latency (zero for cached names). done receives the address or an error.
func (r *Resolver) Resolve(loop *sim.Loop, host string, done func(nsim.Addr, error)) {
	r.mu.Lock()
	addr, ok := r.zones[host]
	cached := r.cache[host]
	if ok {
		r.cache[host] = true
	}
	r.queries++
	if cached {
		r.hits++
	}
	r.mu.Unlock()

	delay := r.latency
	if cached {
		delay = 0
	}
	loop.Schedule(delay, func(sim.Time) {
		if !ok {
			done(0, fmt.Errorf("%w: %q", ErrNXDomain, host))
			return
		}
		done(addr, nil)
	})
}

// Stats reports (queries, cache hits).
func (r *Resolver) Stats() (queries, hits uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.queries, r.hits
}
