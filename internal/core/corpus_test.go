package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mcsquare/internal/memdata"
	"mcsquare/internal/sim"
)

// Seeded-corpus fuzzing: the observational-equivalence fuzzers generate
// op programs — a parameter block plus a flat list of copy/write/read/free
// operations — and replay them through runProgram, which checks every read
// against the shadow eager-copy oracle and finishes with a full-region
// sweep, CTT invariants, and an idle check. A program that fails is
// persisted under testdata/corpus/ in a line-oriented text format, and
// TestCorpusReplay re-runs every persisted program on each go test, so a
// once-found bug stays found.
//
// Program format (addresses hex, # starts a comment):
//
//	param ctt 64          CTT entries            param seed 7
//	param bpq 8           BPQ slots              param region 0x20000
//	param merge off       disable adjacency merging
//	param writeback off   disable bounce writeback
//	param wpqfrac 0.75    WPQ rejection threshold
//	param frees 2         parallel free workers
//	copy 0x10000 0x20005 256   dst src bytes (dst line-aligned, size n*64)
//	write 0x10040 0xab         line-aligned addr, fill byte
//	read 0x10000
//	free 0x10000 128           addr bytes
//
// MCFree makes the freed destination bytes undefined (tracking may be
// dropped, leaving stale memory), so the replayer taints freed lines —
// and lines later copied from them — and exempts tainted lines from
// oracle comparison until a write redefines them. Reads of tainted lines
// are still issued; they must not wedge or crash the engine.

type corpusOp struct {
	kind string       // copy | write | read | free
	a    memdata.Addr // copy dst / write / read / free address
	b    memdata.Addr // copy src
	size uint64       // copy / free bytes
	fill byte         // write fill byte
}

type corpusProgram struct {
	name   string
	params Params
	seed   int64
	region uint64
	ops    []corpusOp
}

// fillLine derives a full line of data from a fill byte; deterministic so
// a persisted program replays the exact write.
func fillLine(fill byte) []byte {
	d := make([]byte, line)
	for i := range d {
		d[i] = fill ^ byte(7*i)
	}
	return d
}

func onoff(enabled bool) string {
	if enabled {
		return "on"
	}
	return "off"
}

// String renders the program in its file format (round-trips with
// parseProgram).
func (p *corpusProgram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", p.name)
	fmt.Fprintf(&b, "param ctt %d\n", p.params.CTTCapacity)
	fmt.Fprintf(&b, "param bpq %d\n", p.params.BPQCapacity)
	fmt.Fprintf(&b, "param merge %s\n", onoff(!p.params.DisableMerge))
	fmt.Fprintf(&b, "param writeback %s\n", onoff(p.params.WritebackOnBounce))
	fmt.Fprintf(&b, "param wpqfrac %g\n", p.params.WPQRejectFrac)
	fmt.Fprintf(&b, "param frees %d\n", p.params.ParallelFrees)
	fmt.Fprintf(&b, "param seed %d\n", p.seed)
	fmt.Fprintf(&b, "param region %#x\n", p.region)
	for _, op := range p.ops {
		switch op.kind {
		case "copy":
			fmt.Fprintf(&b, "copy %#x %#x %d\n", uint64(op.a), uint64(op.b), op.size)
		case "write":
			fmt.Fprintf(&b, "write %#x %#x\n", uint64(op.a), op.fill)
		case "read":
			fmt.Fprintf(&b, "read %#x\n", uint64(op.a))
		case "free":
			fmt.Fprintf(&b, "free %#x %d\n", uint64(op.a), op.size)
		}
	}
	return b.String()
}

// parseProgram parses and validates the file format above. Validation is
// strict so a malformed hand-written corpus file fails loudly instead of
// silently checking nothing.
func parseProgram(name string, data []byte) (*corpusProgram, error) {
	p := &corpusProgram{name: name, params: DefaultParams(), seed: 1, region: 1 << 16}
	num := func(s string) (uint64, error) { return strconv.ParseUint(s, 0, 64) }
	for ln, raw := range strings.Split(string(data), "\n") {
		text := raw
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		f := strings.Fields(text)
		if len(f) == 0 {
			continue
		}
		fail := func(format string, args ...interface{}) error {
			return fmt.Errorf("%s:%d: %s", name, ln+1, fmt.Sprintf(format, args...))
		}
		switch f[0] {
		case "param":
			if len(f) != 3 {
				return nil, fail("param wants 2 args")
			}
			switch f[1] {
			case "ctt", "bpq", "frees", "seed", "region":
				v, err := num(f[2])
				if err != nil {
					return nil, fail("bad value %q", f[2])
				}
				switch f[1] {
				case "ctt":
					p.params.CTTCapacity = int(v)
				case "bpq":
					p.params.BPQCapacity = int(v)
				case "frees":
					p.params.ParallelFrees = int(v)
				case "seed":
					p.seed = int64(v)
				case "region":
					p.region = v
				}
			case "merge":
				p.params.DisableMerge = f[2] == "off"
			case "writeback":
				p.params.WritebackOnBounce = f[2] == "on"
			case "wpqfrac":
				v, err := strconv.ParseFloat(f[2], 64)
				if err != nil {
					return nil, fail("bad value %q", f[2])
				}
				p.params.WPQRejectFrac = v
			default:
				return nil, fail("unknown param %q", f[1])
			}
			continue
		case "copy":
			if len(f) != 4 {
				return nil, fail("copy wants dst src size")
			}
			dst, e1 := num(f[1])
			src, e2 := num(f[2])
			size, e3 := num(f[3])
			if e1 != nil || e2 != nil || e3 != nil {
				return nil, fail("bad copy operands")
			}
			if dst%line != 0 || size == 0 || size%line != 0 {
				return nil, fail("copy dst/size must be line-aligned")
			}
			d := memdata.Range{Start: memdata.Addr(dst), Size: size}
			if d.Overlaps(memdata.Range{Start: memdata.Addr(src), Size: size}) {
				return nil, fail("copy ranges overlap")
			}
			if dst+size > p.region || src+size > p.region {
				return nil, fail("copy outside region %#x", p.region)
			}
			p.ops = append(p.ops, corpusOp{kind: "copy", a: memdata.Addr(dst), b: memdata.Addr(src), size: size})
		case "write":
			if len(f) != 3 {
				return nil, fail("write wants addr fill")
			}
			a, e1 := num(f[1])
			fill, e2 := num(f[2])
			if e1 != nil || e2 != nil || fill > 0xFF {
				return nil, fail("bad write operands")
			}
			if a%line != 0 || a+line > p.region {
				return nil, fail("write must be a line inside the region")
			}
			p.ops = append(p.ops, corpusOp{kind: "write", a: memdata.Addr(a), fill: byte(fill)})
		case "read":
			if len(f) != 2 {
				return nil, fail("read wants addr")
			}
			a, err := num(f[1])
			if err != nil || a+line > p.region {
				return nil, fail("bad read addr")
			}
			p.ops = append(p.ops, corpusOp{kind: "read", a: memdata.Addr(a)})
		case "free":
			if len(f) != 3 {
				return nil, fail("free wants addr size")
			}
			a, e1 := num(f[1])
			size, e2 := num(f[2])
			if e1 != nil || e2 != nil || size == 0 || a+size > p.region {
				return nil, fail("bad free operands")
			}
			p.ops = append(p.ops, corpusOp{kind: "free", a: memdata.Addr(a), size: size})
		default:
			return nil, fail("unknown op %q", f[0])
		}
	}
	if p.region > rigMem {
		return nil, fmt.Errorf("%s: region %#x exceeds rig memory %#x", name, p.region, uint64(rigMem))
	}
	return p, nil
}

// runProgram replays a program against a fresh rig built with pl and
// reports the first divergence from the oracle (empty string =
// equivalent). It never calls t.Fatal itself so callers can persist the
// failing program first.
func runProgram(t *testing.T, prog *corpusProgram, pl planes) (*rig, string) {
	t.Helper()
	r := newRigWith(t, prog.params, pl)
	r.fill(prog.seed)
	undef := make(map[memdata.Addr]bool) // lines exempt from oracle comparison
	lineOf := func(a memdata.Addr) memdata.Addr { return a &^ (line - 1) }
	r.proc = r.eng.Go("corpus", func(p *sim.Proc) {
		for i, op := range prog.ops {
			if r.failed != "" {
				return
			}
			what := fmt.Sprintf("op %d: %s %#x", i, op.kind, uint64(op.a))
			switch op.kind {
			case "copy":
				r.lazyCopy(memdata.Range{Start: op.a, Size: op.size}, op.b)
				for off := uint64(0); off < op.size; off += line {
					tainted := undef[lineOf(op.b+memdata.Addr(off))] ||
						undef[lineOf(op.b+memdata.Addr(off+line-1))]
					undef[op.a+memdata.Addr(off)] = tainted
				}
			case "write":
				r.write(op.a, fillLine(op.fill))
				undef[op.a] = false
			case "read":
				if undef[lineOf(op.a)] {
					r.read(lineOf(op.a)) // exercise, don't compare
				} else {
					r.check(lineOf(op.a), what)
				}
			case "free":
				done := false
				r.lazy.MCFree(memdata.Range{Start: op.a, Size: op.size}, 0, func() {
					done = true
					if !r.proc.Finished() {
						r.proc.Resume()
					}
				})
				for !done {
					r.proc.Suspend()
				}
				for l := lineOf(op.a); l < op.a+memdata.Addr(op.size); l += line {
					undef[l] = true
				}
			}
		}
		// Final sweep: every untainted line in the region must match.
		for a := memdata.Addr(0); a < memdata.Addr(prog.region); a += line {
			if r.failed != "" {
				return
			}
			if !undef[a] {
				r.check(a, "final sweep")
			}
		}
	})
	r.eng.Drain()
	if r.failed != "" {
		return r, r.failed
	}
	if err := r.lazy.CTT().CheckInvariants(); err != nil {
		return r, err.Error()
	}
	if !r.lazy.Idle() {
		return r, "engine not idle after drain"
	}
	return r, ""
}

// persistFailure writes the failing program to the regression corpus so
// TestCorpusReplay reproduces it on every future go test.
func persistFailure(t *testing.T, prog *corpusProgram) {
	t.Helper()
	dir := filepath.Join("testdata", "corpus")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Errorf("persist corpus: %v", err)
		return
	}
	path := filepath.Join(dir, prog.name+".ops")
	if err := os.WriteFile(path, []byte(prog.String()), 0o644); err != nil {
		t.Errorf("persist corpus: %v", err)
		return
	}
	t.Logf("failing op sequence persisted to %s", path)
}

// TestCorpusReplay replays every persisted program. The corpus is seeded
// with hand-written programs covering the regressions the fuzzers are most
// likely to refind (chain collapse under source writes, misaligned sources
// with frees, CTT overflow, BPQ cascades).
func TestCorpusReplay(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.ops"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("empty corpus: testdata/corpus/*.ops missing")
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := parseProgram(strings.TrimSuffix(filepath.Base(f), ".ops"), data)
			if err != nil {
				t.Fatal(err)
			}
			if _, failure := runProgram(t, prog, planes{}); failure != "" {
				t.Fatalf("corpus replay diverged: %s", failure)
			}
		})
	}
}

// TestCorpusCoversWPQWritebackReject pins the corpus's coverage of the
// WPQ rejection path: the wpq-writeback-reject program (wpqfrac 0) must
// actually refuse bounce writebacks, or a future edit could silently turn
// it into a no-op for the failure mode it exists to exercise.
func TestCorpusCoversWPQWritebackReject(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "corpus", "wpq-writeback-reject.ops"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parseProgram("wpq-writeback-reject", data)
	if err != nil {
		t.Fatal(err)
	}
	r, failure := runProgram(t, prog, planes{})
	if failure != "" {
		t.Fatalf("replay diverged: %s", failure)
	}
	if r.lazy.Stats.WritebackRejects == 0 {
		t.Fatal("program did not exercise WritebackRejects; WPQ rejection path uncovered")
	}
	if r.lazy.Stats.Bounces < 2 {
		t.Fatalf("Bounces = %d; rejected writebacks should force repeated bounces", r.lazy.Stats.Bounces)
	}
}

// TestProgramRoundTrip: String and parseProgram are inverses, so persisted
// failures replay the exact op sequence that failed.
func TestProgramRoundTrip(t *testing.T) {
	p := DefaultParams()
	p.CTTCapacity = 16
	p.BPQCapacity = 2
	p.DisableMerge = true
	p.WritebackOnBounce = false
	p.WPQRejectFrac = 0.5
	p.ParallelFrees = 4
	prog := &corpusProgram{
		name: "roundtrip", params: p, seed: 99, region: 0x20000,
		ops: []corpusOp{
			{kind: "copy", a: 0x1000, b: 0x5005, size: 128},
			{kind: "write", a: 0x1040, fill: 0xAB},
			{kind: "read", a: 0x1000},
			{kind: "free", a: 0x1000, size: 128},
		},
	}
	got, err := parseProgram("roundtrip", []byte(prog.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != prog.String() {
		t.Fatalf("round trip changed program:\n%s---\n%s", prog.String(), got.String())
	}
	if got.params != prog.params || got.seed != prog.seed || got.region != prog.region {
		t.Fatalf("round trip changed header: %+v vs %+v", got.params, prog.params)
	}
}

// TestParseProgramRejectsInvalid: malformed corpus files fail loudly.
func TestParseProgramRejectsInvalid(t *testing.T) {
	bad := []string{
		"copy 0x10 0x2000 64",     // misaligned dst
		"copy 0x1000 0x1010 64",   // overlapping ranges
		"copy 0x1000 0x2000 60",   // size not line-multiple
		"write 0x1004 0xab",       // misaligned write
		"write 0x1000 0x1ff",      // fill out of range
		"param region 0x200000\n", // region beyond rig memory
		"param bogus 1",           // unknown param
		"poke 0x1000",             // unknown op
		"read 0x10000",            // outside default region? (== region edge)
	}
	for _, src := range bad {
		if _, err := parseProgram("bad", []byte(src)); err == nil {
			t.Errorf("parseProgram accepted %q", src)
		}
	}
}
