package main

import (
	"slices"
	"strconv"
	"sync"
	"time"
)

// Host calibration. On a shared host the whole machine slows down and
// speeds up by a fifth or more over minutes, as other tenants come and
// go, and every time metric of a run moves with it. The timed run
// therefore also times a fixed kernel that belongs to the benchmark —
// no change to the program under test can move it — after every batch,
// and scales its time metrics by refCalibMS ÷ the kernel's median: the
// figures read as milliseconds on the reference host in its reference
// state. The raw figures are printed beside them.

// refCalibMS is about calibrator.run's median on the host the benchmark
// was tuned on (2 vCPUs, 2 MiB L2 per core, go1.24). It only fixes the
// scale of the scaled figures.
const refCalibMS = 0.9

// calibrator holds the kernel's preallocated state, so a calibration
// allocates nothing and triggers no garbage collection of its own.
type calibrator struct {
	lanes []*calibLane
}

// calibLane is one CPU's share: formatting and parsing numbers (the
// editor's JSON work), a 7-point stencil (the simulator's kernels) and
// a sort (branchy integer work).
type calibLane struct {
	buf    []byte
	tokens []string
	u, v   []float64
	keys   []int
	sorted []int
	sink   float64
}

const calibN = 24 // stencil grid edge

func newCalibrator(cpus int) *calibrator {
	c := &calibrator{}
	for i := 0; i < cpus; i++ {
		l := &calibLane{buf: make([]byte, 0, 1<<15), u: make([]float64, calibN*calibN*calibN),
			v: make([]float64, calibN*calibN*calibN), keys: make([]int, 2048), sorted: make([]int, 2048)}
		x := uint32(12345 + i)
		for k := range l.keys {
			x = x*1664525 + 1013904223
			l.keys[k] = int(x >> 8)
			l.tokens = append(l.tokens, strconv.FormatFloat(float64(x)/7, 'g', -1, 64))
		}
		for k := range l.u {
			l.u[k] = float64(k%7) * 0.1
		}
		c.lanes = append(c.lanes, l)
	}
	return c
}

// work runs one lane's fixed amount of work.
func (l *calibLane) work() {
	l.buf = l.buf[:0]
	for i, k := range l.keys {
		l.buf = strconv.AppendInt(l.buf, int64(k), 10)
		l.buf = strconv.AppendFloat(l.buf, float64(k)*0.125+float64(i), 'g', -1, 64)
	}
	for _, t := range l.tokens {
		f, _ := strconv.ParseFloat(t, 64)
		l.sink += f
	}
	u, v := l.u, l.v
	const n = calibN
	for s := 0; s < 2; s++ {
		for g := n * n; g < len(u)-n*n; g++ {
			v[g] = (u[g-1] + u[g+1] + u[g-n] + u[g+n] + u[g-n*n] + u[g+n*n]) / 6
		}
		u, v = v, u
	}
	copy(l.sorted, l.keys)
	slices.Sort(l.sorted)
	l.sink += u[len(u)/2] + float64(l.sorted[0]) + float64(len(l.buf))
}

// run times every lane working at once, one goroutine per CPU, and
// returns the wall time in milliseconds: the host's current speed as a
// parallel phase of the program would see it.
func (c *calibrator) run() float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, l := range c.lanes {
		wg.Add(1)
		go func(l *calibLane) {
			defer wg.Done()
			l.work()
		}(l)
	}
	wg.Wait()
	return ms(time.Since(t0))
}
