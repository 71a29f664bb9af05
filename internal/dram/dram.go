// Package dram models the timing of a DDR4-style memory channel: banks with
// row buffers, activate/precharge/CAS latencies, and a shared data bus.
//
// The model is deliberately at the "bank busy-until" level rather than
// command-cycle level: each access computes its completion time from the
// bank's row-buffer state and the data bus occupancy. That captures the
// three effects the paper's results depend on — row hits being much cheaper
// than row misses, bank-level parallelism, and bandwidth saturation under
// multi-threaded load — without simulating individual DDR commands.
package dram

import (
	"fmt"

	"mcsquare/internal/memdata"
	"mcsquare/internal/sim"
)

// Config holds the timing and geometry parameters of one channel. All
// latencies are in CPU cycles (the paper's system clocks CPUs at 4 GHz, so
// 1 ns = 4 cycles).
type Config struct {
	Banks   int    // banks per channel
	RowSize uint64 // bytes per row buffer ("page size" in DRAM terms)

	TRCD sim.Cycle // activate: row-to-column delay
	TRP  sim.Cycle // precharge
	TCAS sim.Cycle // column access
	TBL  sim.Cycle // data burst on the bus (one cacheline)
	TCCD sim.Cycle // column-to-column delay: row hits pipeline at this rate
	TWR  sim.Cycle // write recovery after a write burst
}

// DDR4Config returns timings resembling DDR4-3200 seen from a 4 GHz core:
// tRCD = tRP = tCAS ≈ 14 ns (56 cycles), 64-byte burst ≈ 2.5 ns (10 cycles).
func DDR4Config() Config {
	return Config{
		Banks:   16,
		RowSize: 8 << 10,
		TRCD:    56,
		TRP:     56,
		TCAS:    56,
		TBL:     10,
		TCCD:    8,
		TWR:     60,
	}
}

type bank struct {
	openRow   int64 // -1 when no row is open
	busyUntil sim.Cycle
	// wrUntil is when write recovery (tWR) completes: reads and row
	// changes must wait for it, but further writes to the open row
	// pipeline at tCCD.
	wrUntil sim.Cycle
}

// Channel is one DRAM channel: a set of banks behind a shared data bus.
// Access is the only timed operation; it mutates bank and bus state.
type Channel struct {
	cfg      Config
	banks    []bank
	busUntil sim.Cycle

	// Stats
	Reads     uint64
	Writes    uint64
	RowHits   uint64
	RowMisses uint64
}

// NewChannel creates a channel with all banks idle and no open rows.
func NewChannel(cfg Config) *Channel {
	if cfg.Banks <= 0 || cfg.RowSize == 0 {
		panic(fmt.Sprintf("dram: invalid config %+v", cfg))
	}
	ch := &Channel{cfg: cfg, banks: make([]bank, cfg.Banks)}
	for i := range ch.banks {
		ch.banks[i].openRow = -1
	}
	return ch
}

// Config returns the channel's configuration.
func (c *Channel) Config() Config { return c.cfg }

// mapAddr decomposes a channel-local address into (bank, row). The layout is
// [row | bank | column]: consecutive cachelines share a row (sequential
// streams get row hits) and consecutive rows map to different banks. Higher
// row bits are XOR-folded into the bank index (bank hashing), so power-of-
// two strides do not all collide in one bank — standard controller practice.
func (c *Channel) mapAddr(a memdata.Addr) (bankIdx int, row int64) {
	rowID := uint64(a) / c.cfg.RowSize
	banks := uint64(c.cfg.Banks)
	hash := rowID
	if banks > 1 { // folding by 1 would never terminate
		for h := rowID / banks; h != 0; h /= banks {
			hash ^= h
		}
	}
	bankIdx = int(hash % banks)
	row = int64(rowID / banks)
	return bankIdx, row
}

// Access performs a cacheline read or write beginning no earlier than `now`
// and returns the cycle at which the data burst completes. The returned
// time includes bank conflicts, row activate/precharge, and bus contention.
func (c *Channel) Access(now sim.Cycle, a memdata.Addr, write bool) sim.Cycle {
	bi, row := c.mapAddr(a)
	b := &c.banks[bi]

	start := max(now, b.busyUntil)
	var lat sim.Cycle
	switch {
	case b.openRow == row:
		lat = c.cfg.TCAS
		c.RowHits++
		// Reads after writes to the same bank wait out write recovery;
		// back-to-back writes to the open row pipeline at tCCD.
		if !write {
			start = max(start, b.wrUntil)
		}
	case b.openRow == -1:
		lat = c.cfg.TRCD + c.cfg.TCAS
		c.RowMisses++
		start = max(start, b.wrUntil)
	default:
		lat = c.cfg.TRP + c.cfg.TRCD + c.cfg.TCAS
		c.RowMisses++
		start = max(start, b.wrUntil) // precharge waits for tWR
	}
	b.openRow = row
	lat += skewTCAS // 0 in normal builds; see skew_off.go

	// The data burst needs the shared bus; serialize bursts.
	burstStart := max(start+lat, c.busUntil)
	done := burstStart + c.cfg.TBL
	c.busUntil = done

	// Column accesses to an open row pipeline: the bank can accept the next
	// CAS after tCCD, so a sequential stream is bus-limited, not
	// CAS-latency-limited.
	b.busyUntil = burstStart + c.cfg.TCCD
	if write {
		b.wrUntil = done + c.cfg.TWR
		c.Writes++
	} else {
		c.Reads++
	}
	return done
}
