package dnssim

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/nsim"
	"repro/internal/sim"
)

// lookupNow reads a record synchronously, with no latency, cache or
// statistics side effects.
func (r *Resolver) lookupNow(host string) (nsim.Addr, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	addr, ok := r.zones[host]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNXDomain, host)
	}
	return addr, nil
}

// remove deletes a record and its cache entry.
func (r *Resolver) remove(host string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.zones, host)
	delete(r.cache, host)
}

func TestResolveKnownHost(t *testing.T) {
	loop := sim.NewLoop()
	r := NewResolver(10 * sim.Millisecond)
	want := nsim.ParseAddr("93.184.216.34")
	r.Add("example.com", want)

	var got nsim.Addr
	var at sim.Time
	r.Resolve(loop, "example.com", func(a nsim.Addr, err error) {
		if err != nil {
			t.Errorf("Resolve: %v", err)
		}
		got, at = a, loop.Now()
	})
	loop.Run()
	if got != want {
		t.Fatalf("resolved %v, want %v", got, want)
	}
	if at != 10*sim.Millisecond {
		t.Fatalf("resolution at %v, want 10ms", at)
	}
}

func TestResolveNXDomain(t *testing.T) {
	loop := sim.NewLoop()
	r := NewResolver(5 * sim.Millisecond)
	var gotErr error
	r.Resolve(loop, "nosuch.example", func(_ nsim.Addr, err error) { gotErr = err })
	loop.Run()
	if !errors.Is(gotErr, ErrNXDomain) {
		t.Fatalf("err = %v, want ErrNXDomain", gotErr)
	}
}

func TestCacheMakesSecondLookupFree(t *testing.T) {
	loop := sim.NewLoop()
	r := NewResolver(10 * sim.Millisecond)
	r.Add("example.com", 1)

	var first, second sim.Time
	r.Resolve(loop, "example.com", func(nsim.Addr, error) {
		first = loop.Now()
		r.Resolve(loop, "example.com", func(nsim.Addr, error) { second = loop.Now() })
	})
	loop.Run()
	if first != 10*sim.Millisecond {
		t.Fatalf("first lookup at %v, want 10ms", first)
	}
	if second != first {
		t.Fatalf("cached lookup at %v, want %v (free)", second, first)
	}
	q, h := r.Stats()
	if q != 2 || h != 1 {
		t.Fatalf("stats = (%d,%d), want (2,1)", q, h)
	}
}

func TestRemoveEvictsCache(t *testing.T) {
	loop := sim.NewLoop()
	r := NewResolver(0)
	r.Add("x", 1)
	r.Resolve(loop, "x", func(nsim.Addr, error) {})
	loop.Run()
	r.remove("x")
	var gotErr error
	r.Resolve(loop, "x", func(_ nsim.Addr, err error) { gotErr = err })
	loop.Run()
	if !errors.Is(gotErr, ErrNXDomain) {
		t.Fatalf("after Remove: %v, want ErrNXDomain", gotErr)
	}
}

func TestLookupNow(t *testing.T) {
	r := NewResolver(time50())
	r.Add("a", 7)
	got, err := r.lookupNow("a")
	if err != nil || got != 7 {
		t.Fatalf("LookupNow = (%v, %v)", got, err)
	}
	if _, err := r.lookupNow("b"); !errors.Is(err, ErrNXDomain) {
		t.Fatalf("missing host: %v", err)
	}
}

func time50() sim.Time { return 50 * sim.Millisecond }

func TestHostsSorted(t *testing.T) {
	r := NewResolver(0)
	r.Add("zeta.com", 1)
	r.Add("alpha.com", 2)
	r.Add("mid.com", 3)
	hosts := r.Hosts()
	if len(hosts) != 3 || hosts[0] != "alpha.com" || hosts[2] != "zeta.com" {
		t.Fatalf("Hosts = %v", hosts)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestResolverIsolation(t *testing.T) {
	// Two resolvers (two shells) must not see each other's records — the
	// paper's complaint about web-page-replay's host-wide DNS mutation.
	r1 := NewResolver(0)
	r2 := NewResolver(0)
	r1.Add("site.test", 100)
	if _, err := r2.lookupNow("site.test"); !errors.Is(err, ErrNXDomain) {
		t.Fatal("record leaked between resolvers")
	}
}

func TestAddOverwrites(t *testing.T) {
	r := NewResolver(0)
	r.Add("h", 1)
	r.Add("h", 2)
	got, _ := r.lookupNow("h")
	if got != 2 {
		t.Fatalf("overwrite: got %v, want 2", got)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
}
