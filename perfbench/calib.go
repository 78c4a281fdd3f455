package main

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// The benchmark machine's speed moves by far more than the bounds a
// change is judged by (see Noise in doc.go): each vCPU flips between its
// normal speed and one about 1.45 times slower, and how much of a run
// falls in slow stretches differs from run to run. So every time is
// scaled to a reference speed. The timed phase alternates work with a
// fixed calibration kernel, every 100 ms in paper5 and mm20 and every
// 90 requests in serve-mix, and a time measured in a stretch after which
// the kernel's median was k ms is reported as time × calibrationRefMS / k.
// Each set-up is scaled by the kernel timed for 100 ms just before it. A
// change to the program leaves the kernel alone, so a slower compile
// still reads slower by the same ratio.
//
// The kernel does what a compile does most: it allocates small objects,
// hashes string keys into a map and chases pointers through a tree. In an
// 8-minute probe on one core that interleaved compiles with candidate
// kernels, scaling by a kernel like this one cut the spread of 4-s
// compile medians from 8% to 2.4% (paper5) and from 6% to 1.6% (mm20); a
// register-only loop, go/parser, encoding/json and a random walk over
// 64 MiB did as well or slightly worse (2.0-3.5%). Over ten 10-s paper5
// runs with one seed, scaled times spread by 2-4% and unscaled ones by
// 5-13%.

// calibrationRefMS is about the kernel's median time on the machine the
// figures in doc.go come from, so that scaled times read close to
// measured ones there.
const calibrationRefMS = 7.5

// calNode is one node of the kernel's tree.
type calNode struct {
	left, right *calNode
	key         string
	val         int
}

var calSink int

// calibrationKernel does a fixed amount of work: 20,000 inserts of the
// same pseudo-random decimal keys into a map and an unbalanced binary
// search tree.
func calibrationKernel() {
	rng := rand.New(rand.NewSource(1))
	byKey := make(map[string]*calNode)
	var root *calNode
	for i := 0; i < 20000; i++ {
		n := &calNode{key: strconv.Itoa(rng.Intn(1 << 20)), val: i}
		byKey[n.key] = n
		link := &root
		for *link != nil {
			if n.key < (*link).key {
				link = &(*link).left
			} else {
				link = &(*link).right
			}
		}
		*link = n
	}
	calSink += len(byKey)
}

// calibrate runs the kernel until deadline, at least twice, and
// returns the factor that scales a time measured now to the reference
// speed. The collector is off while the kernel runs and collects its
// garbage, untimed, after each run: a collection's cost depends on the
// program's live heap, which a change to the program may alter, and the
// kernel's time must not.
func calibrate(deadline time.Time) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var times []float64
	for len(times) < 2 || time.Now().Before(deadline) {
		runtime.GC()
		t0 := time.Now()
		calibrationKernel()
		times = append(times, ms(time.Since(t0)))
	}
	runtime.GC()
	return calibrationRefMS / median(times)
}

// addCalibration records, as a text line only, the kernel's median time
// over the stretches whose scale factors are given, so a run shows how
// fast the machine was.
func (r *result) addCalibration(factors []float64) {
	r.add("calibration.kernel_ms", "ms", calibrationRefMS/median(factors), len(factors))
}

// scaled multiplies each of xs by f.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
