// Command perfbench is the repository's standing benchmark. One run
// measures one workload for a fixed time and prints, as the last line of
// standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured through the
// public entry points (codetomo.Run, codetomo.RunFleet, station.Server)
// with nothing traced. With -trace 1 the run is followed by a traced
// replay that feeds the workload's own inputs through the layer entry
// points in pipeline order, recording a span around each call, and the
// metrics are the per-layer ones.
//
// Usage (the directory is a module of its own):
//
//	cd perfbench && go run . -root .. -workload corpus|fleet|station -seed N -seconds S -trace 0|1
//
// From the repository root, python3 perfbench/run.py takes the same flags
// and builds the program first. See README.md for the workloads, the
// metrics and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// Seeds recorded in README.md: the default for day-to-day runs, and a
// held-out one for checking a claimed gain on inputs it was not tuned on.
const (
	defaultSeed  = 1
	heldOutSeed  = 20261017
	maxGoWorkers = 2 // the reference machine has two CPUs
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// spec is one metric the benchmark promises to print; the lists below are
// the ones BENCHMARK.json names, and the smoke test holds them equal.
type spec struct{ name, unit string }

var endToEnd = []spec{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"latency_ms_geomean", "ms"},
	{"cycles_saved_pct", "%"},
	{"mae", "prob"},
	{"alloc_kb_per_op", "KB"},
	{"peak_heap_mb", "MB"},
}

// appNames is the corpus in table order: apps.All() plus apps.CallChain.
var appNames = []string{"blink", "sense", "eventdetect", "aggregate", "fir", "crc", "duty", "quantize", "chain"}

// locModules are the packages whose non-test Go lines the size ledger
// counts, keyed by metric suffix.
var locModules = []struct{ name, dir string }{
	{"root", "."},
	{"minic", "internal/minic"},
	{"compile", "internal/compile"},
	{"analysis", "internal/analysis"},
	{"mote", "internal/mote"},
	{"stats", "internal/stats"},
	{"trace", "internal/trace"},
	{"fleet", "internal/fleet"},
	{"markov", "internal/markov"},
	{"tomography", "internal/tomography"},
	{"layout", "internal/layout"},
	{"station", "internal/station"},
}

func perLayerSpecs() []spec {
	var out []spec
	for _, a := range appNames {
		out = append(out, spec{"run_ms." + a, "ms"})
	}
	for _, a := range appNames {
		out = append(out, spec{"cycles_saved_pct." + a, "%"})
	}
	out = append(out,
		spec{"compile.build_profile_ms", "ms"},
		spec{"compile.build_opt_ms", "ms"},
		spec{"compile.alloc_kb", "KB"},
		spec{"mote.run_ms", "ms"},
		spec{"mote.minstr_per_s", "Minstr/s"},
		spec{"mote.reset_us", "us"},
		spec{"mote.run_us_per_mote", "us"},
		spec{"stats.rng_us_per_mote", "us"},
		spec{"stats.rng_kb_per_mote", "KB"},
		spec{"trace.encode_ns_per_frame", "ns"},
		spec{"trace.reassemble_ns_per_frame", "ns"},
		spec{"trace.decode_ns_per_frame", "ns"},
		spec{"trace.decode_mb_per_s", "MB/s"},
		spec{"trace.extract_ms", "ms"},
		spec{"fleet.link_ns_per_frame", "ns"},
		spec{"fleet.retx_per_frame", "ratio"},
		spec{"fleet.simulate_share_pct", "%"},
		spec{"fleet.estimate_ms", "ms"},
		spec{"fleet.bytes_per_mote", "B"},
		spec{"markov.paths", "count"},
		spec{"tomography.model_ms", "ms"},
		spec{"tomography.coverage_ms", "ms"},
		spec{"tomography.em_ms", "ms"},
		spec{"tomography.trusted_frac", "ratio"},
		spec{"layout.plan_ms", "ms"},
		spec{"station.replay_ms", "ms"},
		spec{"station.replay_records", "count"},
		spec{"station.ingest_us_p50", "us"},
		spec{"station.ingest_mem_us_p50", "us"},
		spec{"station.wal_us_per_frame", "us"},
		spec{"station.ack_us_p50", "us"},
		spec{"station.ack_us_p99", "us"},
		spec{"station.wire_us_p50", "us"},
		spec{"station.epoch_rtt_ms_p50", "ms"},
		spec{"station.read_us_p50", "us"},
		spec{"station.read_us_p99", "us"},
		spec{"station.cut_ms", "ms"},
		spec{"station.cut_mem_ms", "ms"},
		spec{"station.snapshot_persist_ms", "ms"},
		spec{"station.queue_depth_max", "count"},
		spec{"station.recovered_frac", "ratio"},
		spec{"station.models_encode_us", "us"},
		spec{"bench.generator_late_ms_p99", "ms"},
		spec{"bench.ref_ms", "ms"},
		spec{"trace_overhead_pct", "%"},
		spec{"untraced_share_pct", "%"},
		spec{"replay_match", "bool"},
	)
	for _, m := range locModules {
		out = append(out, spec{"loc." + m.name, "lines"})
	}
	return append(out, spec{"loc.total", "lines"})
}

// options is one run's parameters. The command line sets seed, seconds,
// trace and the directories; tests shrink the workload sizes.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository root, for the size ledger
	outDir   string // spans and scratch data directories
	sizes    sizes
}

// sizes are the workload dimensions. defaultSizes is what the benchmark
// measures; the smoke test runs the same code on tinySizes.
type sizes struct {
	corpusIters      int // handler invocations per app
	corpusVariants   int // seeds per app, cycled pass by pass
	fleetMotes       int
	fleetVariants    int
	fleetSample      int // motes replayed layer by layer in the traced run
	stationMotes     int
	stationPasses    int // pre-generated uploads per mote
	stationCut       int // ACKed frames between epoch cuts
	corpusSetupBatch int // set-ups (builds) per batch, one batch per pass or call
	fleetSetupBatch  int
	restarts         int // set-up repetitions (restarts) for station
}

var defaultSizes = sizes{
	corpusIters:      3000,
	corpusVariants:   2,
	fleetMotes:       16384,
	fleetVariants:    12,
	fleetSample:      256,
	stationMotes:     4096,
	stationPasses:    48,
	stationCut:       4096,
	corpusSetupBatch: 4,
	fleetSetupBatch:  128,
	restarts:         7,
}

// run measures one workload and returns its result line. Output checks
// that fail are collected in the checker; the result's Correct is false
// when any did.
func run(o options) (*result, error) {
	var (
		ck  checker
		res *result
		err error
	)
	switch o.workload {
	case "corpus":
		// One processor: the single caller's collector work runs on it
		// too. On the 2-vCPU host, a second processor made Run slower,
		// not faster, by an amount that moved with the host's load.
		runtime.GOMAXPROCS(1)
		res, err = runCorpus(o, &ck)
	case "fleet":
		runtime.GOMAXPROCS(min(runtime.NumCPU(), maxGoWorkers))
		res, err = runFleet(o, &ck)
	case "station":
		runtime.GOMAXPROCS(min(runtime.NumCPU(), maxGoWorkers))
		res, err = runStation(o, &ck)
	default:
		return nil, fmt.Errorf("unknown workload %q (want corpus, fleet or station)", o.workload)
	}
	if err != nil {
		return nil, err
	}
	if o.trace {
		if err := addLOC(res.Metrics, o.root); err != nil {
			return nil, err
		}
	}
	res.Correct = ck.ok()
	for _, f := range ck.fails {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	return res, nil
}

// newResult returns a result pre-filled with every promised metric at 0,
// so a metric a workload does not exercise still prints (a per-layer zero
// reads "this layer does no work here").
func newResult(traced bool) *result {
	r := &result{Metrics: make(map[string]metric)}
	list := endToEnd
	if traced {
		list = perLayerSpecs()
	}
	for _, s := range list {
		r.Metrics[s.name] = metric{Unit: s.unit}
	}
	return r
}

// set records a metric value; the unit comes from the promised list.
func (r *result) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("perfbench: unknown metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.Value = v
	r.Metrics[name] = m
}

// checker collects failed output checks.
type checker struct{ fails []string }

func (c *checker) add(err error) {
	if err != nil {
		c.fails = append(c.fails, err.Error())
	}
}

func (c *checker) ok() bool { return len(c.fails) == 0 }

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

func cliMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "corpus, fleet or station")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed for claims: %d)", heldOutSeed))
	seconds := fs.Float64("seconds", 20, "measurement time")
	trace := fs.Int("trace", 0, "1 runs the traced replay and prints the per-layer metrics")
	root := fs.String("root", ".", "repository root (source of the size ledger)")
	out := fs.String("out", "", "directory for spans and scratch data (default $CARGO_TARGET_DIR or .bench_build)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: usage: -workload corpus|fleet|station -seed N -seconds S -trace 0|1")
		return 2
	}
	dir := *out
	if dir == "" {
		dir = os.Getenv("CARGO_TARGET_DIR")
	}
	if dir == "" {
		dir = ".bench_build"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := run(options{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		root: *root, outDir: dir, sizes: defaultSizes,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// --- measurement helpers ---

// quantile is the linear-interpolation quantile of xs (q in [0,1]); xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	f := pos - float64(lo)
	return xs[lo]*(1-f) + xs[lo+1]*f
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// heapMeter reads the runtime's cumulative allocation and live-heap
// figures without stopping the world.
type heapMeter struct{ s []metrics.Sample }

func newHeapMeter() *heapMeter {
	return &heapMeter{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/live:bytes"},
	}}
}

func (h *heapMeter) read() (allocated, live uint64) {
	metrics.Read(h.s)
	return h.s[0].Value.Uint64(), h.s[1].Value.Uint64()
}

// phase measures one timed phase's resources: heap bytes allocated, and
// the live heap (as of each GC) sampled every 5 ms. The highest live heap is
// kept per operation; the maximum over a whole run is an extreme value
// that depends on where collections happen to fall.
type phase struct {
	h          *heapMeter
	alloc0     uint64
	setupAlloc uint64 // allocated by set-ups timed inside the phase
	mu         sync.Mutex
	peak       uint64 // since the last mark
	peaks      []float64
	stop, done chan struct{}
}

// usage is what a phase measured.
type usage struct {
	alloc uint64    // heap bytes allocated
	peaks []float64 // highest live heap of each operation, in order
}

func startPhase() *phase {
	p := &phase{h: newHeapMeter(), stop: make(chan struct{}), done: make(chan struct{})}
	runtime.GC()
	p.alloc0, p.peak = p.h.read()
	go func() {
		defer close(p.done)
		h := newHeapMeter()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				_, live := h.read()
				p.mu.Lock()
				p.peak = max(p.peak, live)
				p.mu.Unlock()
			}
		}
	}()
	return p
}

// mark ends one operation's heap window and starts the next.
func (p *phase) mark() {
	_, live := p.h.read()
	p.mu.Lock()
	p.peaks = append(p.peaks, float64(max(p.peak, live)))
	p.peak = live
	p.mu.Unlock()
}

// end stops the sampler and returns what the phase used.
func (p *phase) end() usage {
	close(p.stop)
	<-p.done
	a, _ := p.h.read()
	if len(p.peaks) == 0 {
		p.mark()
	}
	return usage{alloc: a - p.alloc0 - p.setupAlloc, peaks: p.peaks}
}

// timeSetup times batch set-ups in a row inside the timed phase, scaled
// by a reference sample taken just before, and leaves their heap
// allocation out of the phase's. Batches between the operations
// spread the set-up measurement over the whole run, like every other
// timing, instead of over the few seconds before it.
func (p *phase) timeSetup(cal *calibrator, batch int, setup func() error, into *scaled) error {
	mark := cal.sample(1)
	a0, _ := p.h.read()
	t0 := time.Now()
	for range batch {
		if err := setup(); err != nil {
			return err
		}
	}
	into.add(time.Since(t0).Seconds()/float64(batch), mark)
	a1, _ := p.h.read()
	p.setupAlloc += a1 - a0
	return nil
}

// scratchDir makes a fresh directory under the output directory.
func scratchDir(o options, name string) (string, error) {
	dir := filepath.Join(o.outDir, fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
