package main

import (
	"crypto/sha256"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared: the speed of its CPUs drifts
// by 10-20% over minutes, and by up to 50% in bursts, so the same run of
// the same code on the same seed reads that much faster or slower. Every
// time and rate the benchmark reports is therefore scaled to a reference
// CPU speed. After every unit of work the benchmark times a fixed kernel
// in thread CPU time on a locked OS thread. The kernel allocates nothing
// (it never assists the garbage collector) and its data fits in the L2
// cache (the program's memory footprint hardly slows it), so its time
// tracks only how fast the CPU is running. The speed factor is its median
// time over calibrationRef, the median on the machine the benchmark was
// sized on (2 vCPU Intel Xeon VM, Go 1.24, linux/amd64). Times are divided
// by the factor and rates multiplied by it; run records keep the values as
// measured and the factor.
const calibrationRef = 900 * time.Microsecond

// calibrationData is the kernel's fixed input, built once.
var calibrationData = func() (d struct {
	keys, scratch []uint32
	table         map[uint32]uint32
	buf           []byte
}) {
	x := uint32(2463534242)
	next := func() uint32 { x ^= x << 13; x ^= x >> 17; x ^= x << 5; return x }
	d.keys = make([]uint32, 8192)
	d.scratch = make([]uint32, len(d.keys))
	d.table = make(map[uint32]uint32, 4096)
	for i := range d.keys {
		d.keys[i] = next()
		if i%2 == 0 {
			d.table[d.keys[i]] = uint32(i)
		}
	}
	d.buf = make([]byte, 16<<10)
	for i := range d.buf {
		d.buf[i] = byte(next())
	}
	return d
}()

var calibrationSink uint64

// threadCPU reads the calling thread's CPU clock.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return time.Duration(ts.Nano())
}

// calibrate times one run of the kernel in thread CPU time.
func calibrate() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	d := &calibrationData
	start := threadCPU()
	copy(d.scratch, d.keys)
	slices.Sort(d.scratch)
	var s uint64
	for _, k := range d.keys {
		s += uint64(d.table[k])
	}
	sum := sha256.Sum256(d.buf)
	calibrationSink += s + uint64(sum[0]) + uint64(d.scratch[0])
	return threadCPU() - start
}

// speedFactor is how much slower than the reference CPU the run's CPU ran.
func speedFactor(samples []float64) float64 {
	return median(samples) / float64(calibrationRef)
}

// scale converts a measured value to reference-CPU speed by its unit.
func scale(unit string, v, factor float64) float64 {
	switch unit {
	case "s", "ms", "us":
		return v / factor
	case "1/s":
		return v * factor
	}
	return v
}
