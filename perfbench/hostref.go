package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is a virtual machine on a shared host, and
// its speed drifts: over minutes the same code on the same inputs runs at
// rates up to 1.8 times apart while steal time stays near zero, so neither
// wall time nor CPU time alone can tell a slower program from a slower host.
// A fixed reference kernel, which calls nothing in the program under test,
// is therefore interleaved with a run's ops and timed along with them; its
// median unit time over the run measures the host's speed over the same
// stretch. The end-to-end timings are reported at reference speed: a raw
// time is scaled by refNominal over the kernel's median unit time. The raw
// figures are kept in the report beside them.
//
// The kernel chases pointers through one random cycle over refWords words,
// 64 MiB, far beyond the L2 caches: its speed is the memory latency that
// the host's other tenants drive up, and a compute-only loop stayed steady
// while the program drifted. Of the kernels tried, it followed the drift
// best: on the reference host, over nine minutes of alternating one-shot and
// chain rounds, it cut the quartile spread of ten-second throughput medians
// from 0.155 to 0.099 (one-shot) and from 0.151 to 0.096 (chain), where a
// kernel walking a 2 MiB tree, one working in L2, and a hash kernel did
// less or nothing. Its memory is mapped outside the Go heap, so it changes
// neither the program's garbage-collection pacing nor its heap figures,
// and peakRSSMB leaves it out.

const (
	// refShare is the reference time a run spends per unit of op time.
	refShare = 0.1
	// refNominal is the unit time the reported figures are scaled to; it
	// is about the unit time on the reference host (2-vCPU Intel Xeon VM,
	// Go 1.24), so scaled figures read close to raw ones there.
	refNominal = 200 * time.Microsecond

	refWords = 1 << 24 // uint32 words of the cycle: 64 MiB
	refSteps = 1 << 10 // pointers chased per unit
)

// hostRef is the reference kernel and the unit times it has taken since
// begin. The zero value of *hostRef (nil) runs nothing.
type hostRef struct {
	next []uint32 // next[i] is the word after i on the cycle
	pos  uint32

	debt  time.Duration // reference time owed to the ops run so far
	times []float64     // unit times since begin, in ns
}

// newHostRef maps the kernel's memory and links one cycle through it in an
// order fixed by a constant seed (Sattolo's shuffle): every run, of every
// version of the program, runs the same kernel.
func newHostRef() (*hostRef, error) {
	mem, err := syscall.Mmap(-1, 0, refWords*4, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reference kernel: %w", err)
	}
	next := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), refWords)
	for i := range next {
		next[i] = uint32(i)
	}
	x := uint64(42)
	for i := len(next) - 1; i > 0; i-- {
		x ^= x << 13 // xorshift64
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(i)
		next[i], next[j] = next[j], next[i]
	}
	// Room for a long run's unit times, so recording them allocates
	// nothing in the regions whose allocations are counted.
	return &hostRef{next: next, times: make([]float64, 0, 1<<16)}, nil
}

// unit runs one unit of the kernel: refSteps dependent loads.
func (h *hostRef) unit() {
	p := h.pos
	for i := 0; i < refSteps; i++ {
		p = h.next[p]
	}
	h.pos = p
}

// after runs the kernel for refShare of an op's time d, in ms, carrying what
// is left over to the next op; called after every timed op, it samples the
// host's speed in proportion to the time the ops ran.
func (h *hostRef) after(d float64) {
	if h == nil {
		return
	}
	h.debt += time.Duration(d * refShare * float64(time.Millisecond))
	for h.debt > 0 {
		start := time.Now()
		h.unit()
		t := time.Since(start)
		h.debt -= t
		h.times = append(h.times, float64(t))
	}
}

// sample runs the kernel for about d on its own, to measure the host's speed
// around work it cannot interleave with, such as a child process.
func (h *hostRef) sample(d time.Duration) {
	h.debt += d
	h.after(0)
}

// begin starts a new stretch of measurement.
func (h *hostRef) begin() {
	if h != nil {
		h.times = h.times[:0]
	}
}

// factor is the host's slowness over the stretch since begin: the kernel's
// median unit time over refNominal, above 1 on a slower host. The median
// leaves out the units the Go runtime or the OS interrupted, so the
// program's own garbage collection does not count as the host's slowness.
func (h *hostRef) factor() float64 {
	if h == nil || len(h.times) == 0 {
		return 1
	}
	return median(h.times) / float64(refNominal)
}

// residentMB is the size of the kernel's memory, all of it resident.
func (h *hostRef) residentMB() float64 {
	if h == nil {
		return 0
	}
	return float64(len(h.next)) * 4 / (1 << 20)
}

// rates collects a region's throughput round by round: ops over the ops' own
// time.
type rates struct {
	rec *opRecorder
	raw []float64
}

// wrap returns round with each call's throughput recorded.
func (r *rates) wrap(round func() error) func() error {
	return func() error {
		n := len(r.rec.lat)
		if err := round(); err != nil {
			return err
		}
		var ms float64
		for _, l := range r.rec.lat[n:] {
			ms += l
		}
		r.raw = append(r.raw, float64(len(r.rec.lat)-n)/(ms/1000))
		return nil
	}
}

// report sets ops_per_s to the median round's throughput scaled to reference
// speed by the kernel's unit time since ref.begin, keeps the raw median and
// the factor in the report, and returns the scaled figure.
func (r *rates) report(rep *report, ref *hostRef) float64 {
	raw, f := median(r.raw), ref.factor()
	rep.Metrics["ops_per_s"] = metric{raw * f, "1/s"}
	rep.Extra["ops_per_s_raw"] = raw
	rep.Extra["host_factor"] = f
	return raw * f
}
