package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// The layer attribution turns a CPU profile into flat self time per layer:
// each sample is charged to the function it was executing (the innermost
// inlined frame of the leaf location), and that function's package picks
// the bucket. repro/internal/<pkg> is the module <pkg>. Runtime code is
// split three ways: samples with a GC worker, assist or sweeper anywhere on
// the stack are "runtime.gc"; map access and key hashing are
// "runtime.maps"; the rest is "runtime.other". Any other standard-library
// package is "stdlib", and the benchmark's own code is "bench".

// modules are the program's internal packages, each a named layer.
var modules = []string{
	"archive", "browser", "core", "dnssim", "engine", "experiments", "httpx",
	"inet", "match", "netem", "nsim", "recordshell", "replayshell", "shells",
	"sim", "stats", "tcpsim", "trace", "webgen",
}

// Runtime and other buckets, in report order after the modules.
const (
	bucketGC      = "runtime.gc"
	bucketMaps    = "runtime.maps"
	bucketRuntime = "runtime.other"
	bucketStdlib  = "stdlib"
	bucketBench   = "bench"
	bucketUnknown = "unattributed"
)

// attribution is a profile's CPU time per bucket.
type attribution struct {
	seconds map[string]float64
	samples map[string]int64
	total   int64 // samples
}

// attributedShare is the fraction of samples that landed in a named bucket.
func (a attribution) attributedShare() float64 {
	if a.total == 0 {
		return 0
	}
	return 1 - float64(a.samples[bucketUnknown])/float64(a.total)
}

func (a attribution) totalSeconds() float64 {
	var s float64
	for _, v := range a.seconds {
		s += v
	}
	return s
}

// table renders the attribution sorted by time, with shares.
func (a attribution) table() string {
	type row struct {
		name string
		sec  float64
	}
	var rows []row
	for name, sec := range a.seconds {
		rows = append(rows, row{name, sec})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].sec != rows[j].sec {
			return rows[i].sec > rows[j].sec
		}
		return rows[i].name < rows[j].name
	})
	total := a.totalSeconds()
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %10s %7s %8s\n", "layer", "self_s", "share", "samples")
	for _, r := range rows {
		share := 0.0
		if total > 0 {
			share = 100 * r.sec / total
		}
		fmt.Fprintf(&b, "%-16s %10.3f %6.1f%% %8d\n", r.name, r.sec, share, a.samples[r.name])
	}
	fmt.Fprintf(&b, "%-16s %10.3f %6.1f%% %8d\n", "total", total, 100.0, a.total)
	fmt.Fprintf(&b, "attributed to a named bucket: %.2f%% of samples\n", 100*a.attributedShare())
	return b.String()
}

// printLayers prints the attribution of a CPU profile file.
func printLayers(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	a, err := attribute(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Print(a.table())
	return nil
}

// attribute decodes a gzipped pprof CPU profile and buckets its samples.
func attribute(data []byte) (attribution, error) {
	p, err := parseProfile(data)
	if err != nil {
		return attribution{}, err
	}
	vi := p.cpuValueIndex()
	if vi < 0 {
		return attribution{}, errors.New("profile has no cpu/nanoseconds sample type")
	}
	a := attribution{seconds: map[string]float64{}, samples: map[string]int64{}}
	for _, s := range p.samples {
		if vi >= len(s.values) || len(s.values) == 0 {
			continue
		}
		count := s.values[0]
		bucket := p.bucketOf(s.locs)
		a.seconds[bucket] += float64(s.values[vi]) / 1e9
		a.samples[bucket] += count
		a.total += count
	}
	return a, nil
}

// bucketOf picks the bucket of one sample's stack (leaf first).
func (p *profile) bucketOf(locs []uint64) string {
	if len(locs) == 0 {
		return bucketUnknown
	}
	for _, id := range locs {
		for _, fn := range p.locFuncs[id] {
			if isGCFrame(fn) {
				return bucketGC
			}
		}
	}
	fns := p.locFuncs[locs[0]]
	if len(fns) == 0 {
		return bucketUnknown
	}
	return bucketOfFunc(fns[0])
}

// bucketOfFunc maps a function symbol to its bucket by package path.
func bucketOfFunc(fn string) string {
	pkg := packageOf(fn)
	switch {
	case fn == "":
		return bucketUnknown
	case strings.HasPrefix(fn, "type:.eq.") || strings.HasPrefix(fn, "type:.hash."):
		return bucketMaps // compiler-generated key equality and hashing
	case pkg == "":
		return asmBucket(fn)
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := strings.TrimPrefix(pkg, "repro/internal/")
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[:i]
		}
		return name
	case pkg == "main" || strings.HasPrefix(pkg, "repro/"):
		return bucketBench
	case pkg == "internal/runtime/maps" || pkg == "runtime" && isMapFunc(fn):
		return bucketMaps
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") || strings.HasPrefix(pkg, "runtime/internal/"):
		return bucketRuntime
	case !strings.Contains(strings.SplitN(pkg, "/", 2)[0], "."):
		return bucketStdlib
	}
	return bucketUnknown
}

// asmBucket places the package-less assembly bodies the runtime and
// internal/bytealg export under their Go callers' buckets.
func asmBucket(fn string) string {
	switch {
	case strings.HasPrefix(fn, "aeshash"), strings.HasPrefix(fn, "memeqbody"):
		return bucketMaps
	case strings.HasPrefix(fn, "gcWriteBarrier"):
		return bucketGC
	case strings.HasSuffix(fn, "body"): // indexbytebody, countbody, cmpbody
		return bucketStdlib
	}
	return bucketRuntime
}

// packageOf extracts the import path from a Go function symbol such as
// "repro/internal/sim.(*Loop).Step" or "runtime.mallocgc".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	return fn[:slash+1+dot]
}

// isMapFunc reports runtime functions that serve map access: the map entry
// points and the key hashing and equality helpers.
func isMapFunc(fn string) bool {
	name := strings.TrimPrefix(fn, "runtime.")
	for _, p := range []string{"map", "memhash", "strhash", "aeshash", "interhash", "nilinterhash", "typehash", "memequal", "strequal", "f32hash", "f64hash", "c64hash", "c128hash"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// isGCFrame reports functions that only run as part of garbage collection.
func isGCFrame(fn string) bool {
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.markroot",
		"runtime.scanobject", "runtime.scanblock", "runtime.scanstack", "runtime.greyobject",
		"runtime.wbBufFlush", "runtime.wbBufFlush1", "runtime._GC", "runtime.(*mspan).sweep",
		"runtime.(*sweepLocked).sweep", "runtime.(*gcWork).balance", "runtime.(*gcWork).tryGet":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gc")
}

// profile is the subset of the pprof protobuf the attribution reads.
type profile struct {
	sampleTypes [][2]int64 // (type, unit) string indices
	samples     []sample
	locFuncs    map[uint64][]string // location id -> function names, innermost first
	strs        []string
}

type sample struct {
	locs   []uint64
	values []int64
}

func (p *profile) cpuValueIndex() int {
	for i, st := range p.sampleTypes {
		if p.str(st[0]) == "cpu" && p.str(st[1]) == "nanoseconds" {
			return i
		}
	}
	return -1
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// parseProfile decodes a (possibly gzipped) profile.proto message.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	p := &profile{locFuncs: map[uint64][]string{}}
	type location struct {
		id    uint64
		funcs []uint64
	}
	var locs []location
	funcName := map[uint64]int64{}
	err := eachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var st [2]int64
			err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					st[f-1] = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, st)
			return err
		case 2: // sample
			var s sample
			err := eachField(b, func(f, w int, v uint64, pb []byte) error {
				switch f {
				case 1:
					return appendVarints(w, v, pb, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendVarints(w, v, pb, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var l location
			err := eachField(b, func(f, _ int, v uint64, lb []byte) error {
				switch f {
				case 1:
					l.id = v
				case 4: // line
					return eachField(lb, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							l.funcs = append(l.funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locs = append(locs, l)
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for _, l := range locs {
		names := make([]string, 0, len(l.funcs))
		for _, fid := range l.funcs {
			names = append(names, p.str(funcName[fid]))
		}
		p.locFuncs[l.id] = names
	}
	return p, nil
}

// appendVarints handles a repeated integer field, packed or not.
func appendVarints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and wire type and either its integer value or its bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
