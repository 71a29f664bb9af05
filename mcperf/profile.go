package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file turns a CPU profile into the per-layer and per-phase breakdown.
// runtime/pprof writes a gzipped profile.proto; the decoder below reads only
// the fields the breakdown needs (samples, locations, functions, strings),
// so the benchmark needs no module beyond the standard library.

// stack is one profile sample: function names leaf first, with inlined
// frames expanded, and the number of samples taken at that stack.
type stack struct {
	frames []string
	count  int64
}

// layers are the simulator packages the breakdown charges separately; every
// other mcsquare/internal package is charged to "other".
var layers = []string{"sim", "cpu", "cache", "interconnect", "memctrl", "dram",
	"core", "isa", "memdata", "machine", "fleet", "stats", "metrics"}

// layerNames is every layer a sample can be charged to, in report order.
var layerNames = append(append([]string{}, layers...),
	"other", "go_alloc", "go_sched", "go_gc", "go_other")

// phases maps each phase to the frames that root it. Phases are inclusive:
// a sample counts toward every phase with a root on its stack, so
// "calibrate" contains the build and simulate work fleet calibration does.
var phases = []struct {
	name  string
	roots []string
}{
	{"build", []string{"mcsquare/internal/machine.New", "mcsquare/internal/workloads/*.NewMachineFrom"}},
	{"simulate", []string{"mcsquare/internal/sim.(*Engine).Drain", "mcsquare/internal/sim.(*Engine).Step",
		"mcsquare/internal/sim.(*Engine).RunUntil", "mcsquare/internal/sim.(*Engine).Go.func*"}},
	{"calibrate", []string{"mcsquare/internal/fleet.(*Fleet).Calibrate"}},
	{"queue", []string{"mcsquare/internal/fleet.(*Fleet).Simulate"}},
	{"collect", []string{"mcsquare/internal/metrics.*", "main.mergeFigures"}},
}

// Runtime frames that charge a sample to the Go runtime instead of the
// simulator package that called into it. A "*" matches any run of characters.
var (
	allocFrames = []string{"runtime.mallocgc*", "runtime.newobject", "runtime.makeslice*",
		"runtime.growslice", "runtime.makemap*", "runtime.newarray", "runtime.rawbyteslice",
		"runtime.rawstring*", "runtime.convT*"}
	schedFrames = []string{"runtime.chansend*", "runtime.chanrecv*", "runtime.selectgo",
		"runtime.gopark", "runtime.goready*", "runtime.ready", "runtime.schedule",
		"runtime.findRunnable", "runtime.park_m", "runtime.mcall", "runtime.gosched*",
		"runtime.runq*", "runtime.stealWork", "runtime.wakep", "runtime.startm",
		"runtime.stopm", "runtime.mPark", "runtime.notesleep", "runtime.notewakeup",
		"runtime.futex*", "runtime.execute", "runtime.gogo", "runtime.newproc*",
		"runtime.semasleep", "runtime.semawakeup", "runtime.osyield", "runtime.usleep",
		"runtime.resetspinning", "runtime.casgstatus"}
	gcFrames = []string{"runtime.gc*", "runtime.scan*", "runtime.markroot*",
		"runtime.greyobject", "runtime.findObject", "runtime.bgsweep", "runtime.sweepone",
		"runtime.(*sweepLocked)*", "runtime.(*mspan).sweep", "runtime.bgscavenge",
		"runtime.(*scavengerState)*", "runtime.(*gcWork)*", "runtime.(*gcControllerState)*",
		"runtime.wbBuf*", "runtime.(*mheap).reclaim*", "runtime.deductSweepCredit"}
)

// match reports whether fn equals one of patterns, treating a "*" in a
// pattern as "any run of characters".
func match(fn string, patterns []string) bool {
	for _, p := range patterns {
		if globMatch(p, fn) {
			return true
		}
	}
	return false
}

func globMatch(p, s string) bool {
	before, after, found := strings.Cut(p, "*")
	if !found {
		return p == s
	}
	if !strings.HasPrefix(s, before) {
		return false
	}
	rest := s[len(before):]
	for i := 0; i <= len(rest); i++ {
		if globMatch(after, rest[i:]) {
			return true
		}
	}
	return false
}

// simLayer returns the layer of a frame in a simulator package, or "" for a
// frame outside mcsquare/internal.
func simLayer(fn string) string {
	pkg, ok := strings.CutPrefix(fn, "mcsquare/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	for _, l := range layers {
		if pkg == l {
			return l
		}
	}
	return "other"
}

// chargeLayer names the one layer a sample's CPU time is charged to. The
// innermost mcsquare/internal frame owns the sample unless an allocation,
// scheduler or GC frame lies between it and the leaf: then the Go runtime
// did that work on the package's behalf and is charged instead. Samples with
// no simulator frame are charged by their innermost runtime frame.
func chargeLayer(frames []string) string {
	for _, fn := range frames {
		if l := simLayer(fn); l != "" {
			return l
		}
		switch {
		case match(fn, gcFrames):
			return "go_gc"
		case match(fn, allocFrames):
			return "go_alloc"
		case match(fn, schedFrames):
			return "go_sched"
		}
	}
	return "go_other"
}

// attribute sums samples into "layer.<name>" (exclusive) and "phase.<name>"
// (inclusive) counts, plus "total".
func attribute(stacks []stack) map[string]int64 {
	out := map[string]int64{}
	for _, s := range stacks {
		out["total"] += s.count
		out["layer."+chargeLayer(s.frames)] += s.count
		for _, ph := range phases {
			for _, fn := range s.frames {
				if match(fn, ph.roots) {
					out["phase."+ph.name] += s.count
					break
				}
			}
		}
	}
	return out
}

// parseProfile decodes a gzipped profile.proto as runtime/pprof writes it,
// counting each sample by its first value (the sample count for a CPU
// profile).
func parseProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(num int, v uint64, msg []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			err := eachField(msg, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					return appendVarints(&vals, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(msg, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				idx := funcNames[fid]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("profile: function %d names string %d of %d", fid, idx, len(strs))
				}
				st.frames = append(st.frames, strs[idx])
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks the protobuf fields of msg, passing varint fields as v and
// length-delimited fields as b. Fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(msg) < size {
				return errTruncated
			}
			msg = msg[size:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, which the encoder writes
// either packed (b holds the values) or one value per field (v).
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
