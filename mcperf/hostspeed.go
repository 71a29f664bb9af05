package main

import (
	"errors"
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed moves by tens of percent from minute to minute on a
// shared virtual machine, and it moves the simulator's round times with it:
// the same mvcc round took anywhere from 4 to 8 s within one half-hour set
// of runs. A round therefore also times a fixed piece of reference work, on
// the same P and interleaved with the jobs, so that it sees the host as the
// jobs do, and the host-time metrics are scaled by how long that work took.
// The reference work is the benchmark's own code, so no change to the
// simulator can make it faster or slower.
//
// Timed before and after a round, or on the other CPU while the round ran,
// the reference did not follow the host closely enough; interleaved, the
// interquartile range of wall_s over ten runs fell from 9 to 35% of the
// median to 2 to 8% on every workload. Over 120 rounds of four workloads,
// single rounds' wall times spread by 17 to 22% of their median and the
// scaled ones by 5 to 12%, with wall time growing in proportion to the
// reference time (log-log slope 0.8 to 1.1). Other references followed the
// rounds less well: pointer chases through 4 and 32 MiB, a burst of small
// allocations, or either half of this one alone.
//
// The reference keeps its memory outside the Go heap and allocates nothing
// once started, so that the jobs' heap is laid out as it would be without
// it. Where a job's large allocations land decides whether the runtime
// zeroes recycled pages, which makes them resident, or takes untouched ones
// from the OS: with the reference's buffers in the heap, two of protobuf's
// three job orders peaked at 846 MB instead of 589.

// refNominalS is what the reference work takes at the reference speed, the
// speed the scaled metrics are given at. On the 2-vCPU virtual machine the
// seed numbers come from it takes 0.9 to 1.7 ms.
const refNominalS = 1e-3

// refInterval is how often a round times the reference work. Each timing
// costs about 1 ms of the round, which is subtracted from its wall and CPU
// time.
const refInterval = 50 * time.Millisecond

// maxTimings is how many timings of each half a round keeps. childTimeout
// ends a round within 90 s, 1800 intervals.
const maxTimings = 4096

// refSink keeps the compiler from discarding the reference work.
var refSink uint64

// refCompute is the reference's integer half: a xorshift generator and a
// data-dependent branch, in registers.
func refCompute() {
	x, acc := uint64(1), uint64(0)
	for i := 0; i < 100_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&3 == 0 {
			acc += x >> 3
		} else {
			acc ^= x
		}
	}
	refSink += acc
}

// refChain is the reference's memory half: a pointer chase around one random
// cycle through 256 KiB, which stays in the caches.
type refChain struct {
	next []uint32
	at   uint32
}

// link makes next one random cycle through all its indices, using perm, of
// the same length, as scratch space.
func (c *refChain) link(perm []uint32) {
	n := len(perm)
	for i := range perm {
		perm[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i, p := range perm {
		c.next[p] = perm[(i+1)%n]
	}
}

func (c *refChain) walk() {
	at := c.at
	for i := 0; i < 50_000; i++ {
		at = c.next[at]
	}
	c.at = at
}

// hostSpeed times the reference work every refInterval on a goroutine of
// its own, which on the child's one P runs between the jobs' goroutines.
type hostSpeed struct {
	stopc   chan struct{}
	done    chan struct{}
	chain   refChain
	compute []float64 // seconds per timing, off the heap
	walk    []float64
	spentS  float64  // total time spent on the reference work
	maps    [][]byte // the off-heap memory, for release
}

// offHeap returns n zero values of T in memory that h maps for them outside
// the Go heap, until h.release.
func offHeap[T any](h *hostSpeed, n int) ([]T, error) {
	var zero T
	m, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	h.maps = append(h.maps, m)
	return unsafe.Slice((*T)(unsafe.Pointer(&m[0])), n), nil
}

func (h *hostSpeed) release() {
	h.compute, h.walk, h.chain.next = nil, nil, nil
	for _, m := range h.maps {
		syscall.Munmap(m)
	}
	h.maps = nil
}

func startHostSpeed() (*hostSpeed, error) {
	const chainLen = 64 << 10
	h := &hostSpeed{stopc: make(chan struct{}), done: make(chan struct{})}
	next, err1 := offHeap[uint32](h, chainLen)
	perm, err2 := offHeap[uint32](h, chainLen)
	compute, err3 := offHeap[float64](h, maxTimings)
	walk, err4 := offHeap[float64](h, maxTimings)
	if err := errors.Join(err1, err2, err3, err4); err != nil {
		h.release()
		return nil, fmt.Errorf("reference work: %w", err)
	}
	h.chain.next = next
	h.chain.link(perm)
	h.compute, h.walk = compute[:0], walk[:0]
	go h.loop()
	return h, nil
}

func (h *hostSpeed) loop() {
	defer close(h.done)
	tick := time.NewTicker(refInterval)
	defer tick.Stop()
	for {
		select {
		case <-h.stopc:
			if len(h.compute) == 0 { // a round shorter than refInterval
				h.sample()
			}
			return
		case <-tick.C:
			h.sample()
		}
	}
}

func (h *hostSpeed) sample() {
	if len(h.compute) == maxTimings {
		return
	}
	t0 := time.Now()
	refCompute()
	t1 := time.Now()
	h.chain.walk()
	t2 := time.Now()
	h.compute = append(h.compute, t1.Sub(t0).Seconds())
	h.walk = append(h.walk, t2.Sub(t1).Seconds())
	h.spentS += t2.Sub(t0).Seconds()
}

// stop ends the timings and returns how long the reference work took (the
// sum of its two halves' median timings) and the total time they took from
// the round.
func (h *hostSpeed) stop() (refS, spentS float64) {
	close(h.stopc)
	<-h.done
	refS = median(h.compute) + median(h.walk)
	h.release()
	return refS, h.spentS
}
