package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// The shared host this benchmark runs on changes speed between runs and
// within them: the same code has run at twice its speed in one run as in
// the next, in CPU time as well as wall time. So every end-to-end time is
// scaled by a reference kernel timed beside it in the same run, on every
// processor the workload uses:
//
//	reported = measured × nominal kernel time / (median kernel time near the measurement)
//
// The kernels are the benchmark's own fixed code (and the standard
// library's) and touch none of the program's data, so a change to the
// program moves a scaled time exactly as much as the raw one, while a host
// that runs everything at half speed moves neither. A slow host does not
// slow all code alike: large, branchy, allocating code such as a compiler
// slowed about 2.7 times as much as tight arithmetic loops. So each
// workload has the kernel that slowed like it did: the parsing kernel for
// corpus (compiler, interpreter, path enumeration), the arithmetic kernel
// for fleet (random-stream seeding, CRC), and both in turn for the station.
// The per-layer figures stay raw; bench.ref_ms reports the kernel's own
// median time, so the host's speed in a run can be read next to them.

// arithNominalMS and parseNominalMS are the kernels' median times on the
// reference machine (2 vCPUs of an Intel Xeon at 2.1 GHz), so scaled
// figures read as milliseconds on that machine.
const (
	arithNominalMS = 1.40
	parseNominalMS = 0.95
)

// Arithmetic kernel dimensions. The kernel does the kinds of work the
// fleet does: seeding math/rand sources (integer division chains), a
// bitwise CRC-16 (data-dependent branches), a sort of fresh random keys, a
// linear-probing hash table over them, and transcendental arithmetic.
// Fresh keys on every pass keep the branch predictor from learning one
// fixed input, which it does to a different degree in each process.
const (
	refSeeds     = 24
	refCRCBytes  = 16 << 10
	refSortKeys  = 2048
	refHashSlots = 4096 // twice refSortKeys
	refFloats    = 2048
)

// arithKernel is the arithmetic kernel's working set, allocated once, so a
// pass allocates nothing.
type arithKernel struct {
	src    rand.Source
	buf    []byte
	keys   []uint32
	sorted []uint32
	slots  []uint32 // hash keys, 0 = empty
	vals   []uint32
	rng    uint64 // xorshift64 state
	sink   uint64
}

func newArithKernel(seed uint64) *arithKernel {
	k := &arithKernel{
		src:  rand.NewSource(0),
		buf:  make([]byte, refCRCBytes),
		keys: make([]uint32, refSortKeys), sorted: make([]uint32, refSortKeys),
		slots: make([]uint32, refHashSlots), vals: make([]uint32, refHashSlots),
		rng: seed | 1,
	}
	for i := range k.buf {
		k.buf[i] = byte(k.next())
	}
	return k
}

func (k *arithKernel) next() uint64 {
	k.rng ^= k.rng << 13
	k.rng ^= k.rng >> 7
	k.rng ^= k.rng << 17
	return k.rng
}

// run is one pass of the kernel; its result only feeds sink.
func (k *arithKernel) run() {
	drawn := int64(0)
	for i := 0; i < refSeeds; i++ {
		k.src.Seed(int64(k.next()))
		drawn += k.src.Int63()
	}

	crc := uint16(0xffff)
	for _, b := range k.buf {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}

	for i := range k.keys {
		k.keys[i] = uint32(k.next()) | 1
	}
	copy(k.sorted, k.keys)
	slices.Sort(k.sorted)

	clear(k.slots)
	const mask = refHashSlots - 1
	for i, key := range k.keys {
		h := key * 0x9e3779b1 & mask
		for k.slots[h] != 0 && k.slots[h] != key {
			h = (h + 1) & mask
		}
		k.slots[h], k.vals[h] = key, uint32(i)
	}
	hits := uint32(0)
	for _, key := range k.sorted {
		h := key * 0x9e3779b1 & mask
		for k.slots[h] != key {
			h = (h + 1) & mask
		}
		hits += k.vals[h]
	}

	f := 0.0
	for i := 0; i < refFloats; i++ {
		v := float64(i+1) / refFloats
		f += math.Exp(-v) * math.Log1p(v)
	}
	k.sink += uint64(drawn) + uint64(crc) + uint64(hits) + uint64(f)
}

// parseKernel is the reference for the corpus: parsing, walking and
// printing Go source with the standard library, which like the workload's
// compiler is large, branchy, pointer-chasing code that allocates many
// small objects.
type parseKernel struct {
	src  string
	out  bytes.Buffer
	sink int
}

func newParseKernel() *parseKernel {
	var b strings.Builder
	b.WriteString("package ref\n\nimport \"fmt\"\n\ntype node struct {\n\tkey  int\n\tnext *node\n\tvals map[string]float64\n}\n")
	for f := 0; f < 16; f++ {
		fmt.Fprintf(&b, `
func step%d(n *node, xs []int) (int, error) {
	total := %d
	for i, x := range xs {
		if x%%%d == 0 && n != nil {
			total += x * i
			n = n.next
		} else if v, ok := n.vals["k%d"]; ok {
			total -= int(v) + len(xs)
		}
		switch {
		case total > %d:
			return total, nil
		case total < -%d:
			total = -total / 2
		}
	}
	m := map[string]float64{"a": 1.5, "b": %d.25}
	return total + len(m), fmt.Errorf("step%d: %%d", total)
}
`, f, f, f%7+2, f, 1000+f, 500+f, f, f)
	}
	return &parseKernel{src: b.String()}
}

func (k *parseKernel) run() {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "ref.go", k.src, parser.ParseComments)
	if err != nil {
		panic(err) // the source is fixed and valid
	}
	ast.Inspect(file, func(n ast.Node) bool {
		k.sink++
		return true
	})
	k.out.Reset()
	if err := printer.Fprint(&k.out, fset, file); err != nil {
		panic(err)
	}
	k.sink += k.out.Len()
}

// calibrator times the reference kernel on every processor the
// workloads use at once, and scales measurements by the samples taken
// nearest to them. Lane 0 runs on the caller's goroutine; each other lane
// has a goroutine of its own, locked to its own thread, so that the lanes
// run on different processors. Each lane times only its own pass, so the
// time it takes to wake a lane is not counted; a sample is the lanes'
// mean.
type calibrator struct {
	k       kernel
	nominal float64            // the kernel's median time on the reference machine, ms
	start   []chan struct{}    // one per extra lane; closed to stop it
	done    chan time.Duration // each extra lane's pass time
	ms      []float64          // sample times, in order
}

// kernel is one lane of a reference kernel.
type kernel interface{ run() }

// newArithCalibrator times the arithmetic kernel (arithKernel), the
// reference for fleet.
func newArithCalibrator() *calibrator {
	return newCalibrator(arithNominalMS, func(lane int) kernel {
		return newArithKernel(uint64(lane)*0x9e3779b97f4a7c15 + 88172645463325252)
	})
}

// newParseCalibrator times the parsing kernel (parseKernel), the
// reference for corpus.
func newParseCalibrator() *calibrator {
	return newCalibrator(parseNominalMS, func(int) kernel { return newParseKernel() })
}

// newMixedCalibrator times both kernels, one after the other, as one
// sample: the reference for the station, whose work is half of each kind
// (decoding and CRC beside goroutine hand-offs, system calls, allocation
// and HTTP).
func newMixedCalibrator() *calibrator {
	return newCalibrator(arithNominalMS+parseNominalMS, func(lane int) kernel {
		return mixedKernel{newArithKernel(uint64(lane)*0x9e3779b97f4a7c15 + 88172645463325252), newParseKernel()}
	})
}

// mixedKernel runs the arithmetic and the parsing kernel in turn.
type mixedKernel struct {
	a *arithKernel
	p *parseKernel
}

func (k mixedKernel) run() {
	k.a.run()
	k.p.run()
}

func newCalibrator(nominal float64, newKernel func(lane int) kernel) *calibrator {
	c := &calibrator{k: newKernel(0), nominal: nominal, done: make(chan time.Duration)}
	for lane := 1; lane < runtime.GOMAXPROCS(0); lane++ {
		k := newKernel(lane)
		start := make(chan struct{})
		c.start = append(c.start, start)
		go func() {
			runtime.LockOSThread()
			for range start {
				t0 := time.Now()
				k.run()
				c.done <- time.Since(t0)
			}
		}()
	}
	c.sample(1) // warm the caches; the first sample is not kept
	c.ms = c.ms[:0]
	return c
}

// sample times n passes of the kernel and returns the position of the
// next sample: the mark an operation measured right after it is scaled
// by. With more than one processor a garbage collection runs first, so
// that the program's collector is not still marking beside the kernel;
// with one, the collector cannot run while the kernel does.
func (c *calibrator) sample(n int) int {
	if len(c.start) > 0 {
		runtime.GC()
	}
	for ; n > 0; n-- {
		for _, start := range c.start {
			start <- struct{}{}
		}
		t0 := time.Now()
		c.k.run()
		total := time.Since(t0)
		for range c.start {
			total += <-c.done
		}
		c.ms = append(c.ms, ms(total)/float64(1+len(c.start)))
	}
	return len(c.ms)
}

// scale is the factor for a measurement taken at mark: the nominal
// kernel time over the median of the up to 2w samples around it.
func (c *calibrator) scale(mark, w int) float64 {
	lo, hi := max(0, mark-w), min(len(c.ms), mark+w)
	if lo >= hi {
		lo, hi = 0, len(c.ms)
	}
	return c.nominal / median(slices.Clone(c.ms[lo:hi]))
}

// refMS is the kernel's median time over the whole run.
func (c *calibrator) refMS() float64 { return median(slices.Clone(c.ms)) }

// close stops the extra lanes and writes the host's speed in this run to
// standard error.
func (c *calibrator) close() {
	for _, start := range c.start {
		close(start)
	}
	if len(c.ms) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: reference kernel %.3f ms median over %d samples (%.2f ms on the reference machine)\n",
			c.refMS(), len(c.ms), c.nominal)
	}
}

// logUnscaled writes the end-to-end timings before scaling to standard
// error, for reading next to the reference kernel's time.
func logUnscaled(opsPerS, latencyMS, setupS float64) {
	fmt.Fprintf(os.Stderr, "perfbench: unscaled ops_per_s %.5g, latency_ms_geomean %.5g, setup_s %.5g\n", opsPerS, latencyMS, setupS)
}

// scaled is a list of measurements, each with the calibrator mark it was
// taken at.
type scaled struct {
	raw   []float64
	marks []int
}

func (s *scaled) add(v float64, mark int) {
	s.raw = append(s.raw, v)
	s.marks = append(s.marks, mark)
}

// median is the median of the measurements, each scaled by the samples
// within w of its mark.
func (s *scaled) median(c *calibrator, w int) float64 {
	xs := make([]float64, len(s.raw))
	for i, v := range s.raw {
		xs[i] = v * c.scale(s.marks[i], w)
	}
	return median(xs)
}

// rawMedian is the median of the unscaled measurements.
func (s *scaled) rawMedian() float64 { return median(slices.Clone(s.raw)) }
