// Package copykit defines the copy-mechanism abstraction the workloads are
// parameterized over, so every experiment runs unchanged against the eager
// baseline, (MC)² lazy copies, and the zIO-style elision baseline.
//
// Reads and writes go through the Copier because copy-eliding baselines
// (zIO) must intercept accesses to elided destinations; the eager and lazy
// implementations pass them straight to the core.
package copykit

import (
	"mcsquare/internal/cpu"
	"mcsquare/internal/memdata"
	"mcsquare/internal/softmc"
)

// Copier is one copy mechanism under test.
type Copier interface {
	// Memcpy copies n bytes from src to dst with memcpy semantics.
	Memcpy(c *cpu.Core, dst, src memdata.Addr, n uint64)
	// Read returns n bytes at a (dependent-load semantics).
	Read(c *cpu.Core, a memdata.Addr, n uint64) []byte
	// ReadAsync touches n bytes at a without consuming the value
	// (streaming semantics).
	ReadAsync(c *cpu.Core, a memdata.Addr, n uint64)
	// Write stores data at a.
	Write(c *cpu.Core, a memdata.Addr, data []byte)
	// Free hints that [r.Start, r.End) is dead.
	Free(c *cpu.Core, r memdata.Range)
}

// Eager is the native memcpy baseline.
type Eager struct{}

// Memcpy implements Copier with a plain cache-level copy.
func (Eager) Memcpy(c *cpu.Core, dst, src memdata.Addr, n uint64) {
	softmc.MemcpyEager(c, dst, src, n)
}

// Read implements Copier.
func (Eager) Read(c *cpu.Core, a memdata.Addr, n uint64) []byte { return c.Load(a, n) }

// ReadAsync implements Copier.
func (Eager) ReadAsync(c *cpu.Core, a memdata.Addr, n uint64) { c.LoadAsync(a, n) }

// Write implements Copier.
func (Eager) Write(c *cpu.Core, a memdata.Addr, data []byte) { c.Store(a, data) }

// Free implements Copier (no-op: nothing is tracked).
func (Eager) Free(c *cpu.Core, r memdata.Range) {}

// Lazy is (MC)² behind the copy_interpose.so policy: calls at or above
// Threshold go through memcpy_lazy, smaller ones stay eager. The paper
// redirects calls of 1 KB and more; Threshold 0 makes every call lazy,
// which is the raw §III-D library (the softmc mechanism).
type Lazy struct {
	Threshold uint64
}

// Memcpy implements Copier.
func (l Lazy) Memcpy(c *cpu.Core, dst, src memdata.Addr, n uint64) {
	if n >= l.Threshold {
		softmc.MemcpyLazy(c, dst, src, n)
	} else {
		softmc.MemcpyEager(c, dst, src, n)
	}
}

// Read implements Copier.
func (Lazy) Read(c *cpu.Core, a memdata.Addr, n uint64) []byte { return c.Load(a, n) }

// ReadAsync implements Copier.
func (Lazy) ReadAsync(c *cpu.Core, a memdata.Addr, n uint64) { c.LoadAsync(a, n) }

// Write implements Copier.
func (Lazy) Write(c *cpu.Core, a memdata.Addr, data []byte) { c.Store(a, data) }

// Free implements Copier with MCFREE.
func (Lazy) Free(c *cpu.Core, r memdata.Range) { softmc.Free(c, r) }
