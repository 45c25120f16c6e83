package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"codetomo"
	"codetomo/internal/apps"
	"codetomo/internal/compile"
	"codetomo/internal/fleet"
	"codetomo/internal/ir"
	"codetomo/internal/isa"
	"codetomo/internal/markov"
	"codetomo/internal/mote"
	"codetomo/internal/profile"
	"codetomo/internal/station"
	"codetomo/internal/tomography"
	"codetomo/internal/trace"
)

// The station workload is ctfleet -push against an in-process ctstationd:
// eventdetect at 50 invocations per mote on a perfect channel, pushed
// over one stop-and-wait TCP session, with an epoch cut after every 4096
// ACKed frames and model reads at a fixed rate on a second connection.
const (
	stationApp     = "eventdetect"
	stationPerMote = 50
	readsPerSecond = 50
	pushRetries    = 3    // ctfleet -push's default
	scoredWindows  = 16   // cut windows after which the station's state is scored
	measureIters   = 3000 // handler invocations when measuring a published layout

	// stationCalSamples reference samples are taken before each restart
	// and each cut window; a window is scaled by those of the three
	// windows on each side.
	stationCalSamples = 3
)

// stationMote is one mote's upload: where its frames sit in every pass,
// and the invocations its stream holds (recovered plus discarded by the
// reassembler), which every later upload of the mote repeats.
type stationMote struct {
	id          uint16
	first, n    int // the mote's frames are first..first+n-1 of a pass
	invocations int
}

// stationInputs are generated before timing starts. Pass k holds every
// mote's k-th upload, in mote order: pass 0 is the frames as generated,
// and pass k carries the same events with sequence numbers continuing
// where pass k-1 stopped, so the station takes every pass as new data
// from the same motes instead of as stale redeliveries. The passes live
// outside the Go heap, so the heap and the collector's pacing are the
// station's own.
type stationInputs struct {
	src        string
	measureSrc string // the same program, run longer to measure a layout
	workload   string
	seed       int64
	motes      []stationMote
	frames     int     // frames per pass
	cutEvery   int     // ACKed frames between epoch cuts
	passes     int     // passes generated, pass 0 included
	passBytes  int     // every pass has the same frame lengths
	offs       []int32 // frame i of a pass is bytes offs[i]..offs[i+1]
	arena      []byte  // every pass back to back, mapped outside the heap
	oracle     map[int32]*mote.BranchStat
	prof       *compile.Output
}

// frame returns frame i (in mote order) of pass k.
func (in *stationInputs) frame(k, i int) []byte {
	base := k * in.passBytes
	return in.arena[base+int(in.offs[i]) : base+int(in.offs[i+1])]
}

func stationInputsFor(o options) (*stationInputs, error) {
	app, ok := apps.ByName(stationApp)
	if !ok {
		return nil, fmt.Errorf("app %q missing", stationApp)
	}
	src, err := app.Source(stationPerMote)
	if err != nil {
		return nil, err
	}
	measureSrc, err := app.Source(measureIters)
	if err != nil {
		return nil, err
	}
	in := &stationInputs{src: src, measureSrc: measureSrc, workload: app.Workload, seed: variantSeed(o.seed, 0), cutEvery: o.sizes.stationCut}
	uploads, err := codetomo.FleetUploads(src, codetomo.FleetConfig{
		Config: codetomo.Config{Seed: in.seed, Workload: app.Workload},
		Motes:  o.sizes.stationMotes, Workers: maxGoWorkers,
	})
	if err != nil {
		return nil, err
	}
	in.oracle = fleet.MergeBranchStats(uploads)
	if in.prof, err = compile.Build(src, compile.Options{Instrument: compile.ModeTimestamps}); err != nil {
		return nil, err
	}
	pkts := make([][]trace.Packet, len(uploads))
	in.offs = []int32{0}
	for j, up := range uploads {
		m := stationMote{id: up.Spec.ID, first: in.frames, n: len(up.Frames)}
		r := trace.NewReassembler(m.id)
		for i, f := range up.Frames {
			var p trace.Packet
			if err := p.UnmarshalBinary(f); err != nil {
				return nil, fmt.Errorf("mote %d frame %d: %w", m.id, i, err)
			}
			if p.Seq != uint32(i) {
				return nil, fmt.Errorf("mote %d: frame %d has sequence %d on a perfect channel", m.id, i, p.Seq)
			}
			if err := r.Add(p); err != nil {
				return nil, err
			}
			pkts[j] = append(pkts[j], p)
			in.passBytes += len(f)
			in.offs = append(in.offs, int32(in.passBytes))
		}
		_, st := r.Recover()
		m.invocations = st.InvocationsRecovered + st.InvocationsDiscarded
		in.motes = append(in.motes, m)
		in.frames += m.n
	}

	in.passes = o.sizes.stationPasses + 1
	in.arena, err = syscall.Mmap(-1, 0, in.passes*in.passBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping %d passes: %w", in.passes, err)
	}
	errs := make([]error, in.passes)
	var wg sync.WaitGroup
	for w := 0; w < maxGoWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < in.passes; k += maxGoWorkers {
				errs[k] = in.relabel(k, pkts)
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		in.release()
		return nil, err
	}
	return in, nil
}

// relabel encodes pass k into its place in the arena.
func (in *stationInputs) relabel(k int, pkts [][]trace.Packet) error {
	for j, m := range in.motes {
		for i, p := range pkts[j] {
			p.Seq += uint32(k * m.n)
			b, err := p.MarshalBinary()
			if err != nil {
				return err
			}
			dst := in.frame(k, m.first+i)
			if len(b) != len(dst) {
				return fmt.Errorf("mote %d frame %d changed length when relabelled", m.id, i)
			}
			copy(dst, b)
		}
	}
	return nil
}

// release unmaps the passes.
func (in *stationInputs) release() {
	if in.arena != nil {
		syscall.Munmap(in.arena) //nolint:errcheck // nothing uses the mapping after this
		in.arena = nil
	}
}

func stationConfig(in *stationInputs, dir string) station.Config {
	return station.Config{Program: in.src, DataDir: dir}
}

// ingestPass feeds pass k to an in-process station, cutting an epoch at
// the first mote boundary after every in.cutEvery frames, and returns the
// frames since the last cut. Spans go to tr (nil: untraced).
func ingestPass(tr *tracer, s *station.Server, in *stationInputs, k, since int, ingestSpan, cutSpan string, depth *int) (int, error) {
	for j, m := range in.motes {
		for i := m.first; i < m.first+m.n; i++ {
			tr.begin(ingestSpan)
			err := s.IngestFrame(in.frame(k, i))
			tr.end()
			if err != nil {
				return since, fmt.Errorf("ingest pass %d mote %d: %w", k, m.id, err)
			}
		}
		if depth != nil && j%16 == 0 {
			*depth = max(*depth, maxDepth(s))
		}
		since += m.n
		if since >= in.cutEvery {
			tr.begin(cutSpan)
			_, err := s.CutEpoch()
			tr.end()
			if err != nil {
				return since, err
			}
			since = 0
		}
	}
	return since, nil
}

func maxDepth(s *station.Server) int {
	d := 0
	for _, q := range s.Metrics().ShardQueueDepth {
		d = max(d, q)
	}
	return d
}

// writeWAL leaves in dir the data directory of a station that ingested
// pass 0 and sealed it, and returns the number of WAL records: one per
// frame and one per epoch cut.
func writeWAL(in *stationInputs, dir string) (int, error) {
	s, err := station.New(stationConfig(in, dir))
	if err != nil {
		return 0, err
	}
	since, err := ingestPass(nil, s, in, 0, 0, "", "", nil)
	if err == nil && since > 0 {
		_, err = s.CutEpoch()
	}
	cuts := int(s.Epoch())
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	return in.frames + cuts, err
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// checkPush fails unless every frame pushed was ACKed first time.
func checkPush(st station.PushStats, pushed int) error {
	if st.Frames != pushed || st.Acked != pushed || st.Failed != 0 || st.Retransmissions != 0 {
		return fmt.Errorf("station push: %d frames pushed, session saw %+v", pushed, st)
	}
	return nil
}

// checkReplay fails unless set-up recovered exactly the WAL the previous
// pass wrote.
func checkReplay(recovered uint64, want int) error {
	if recovered != uint64(want) {
		return fmt.Errorf("station set-up replayed %d WAL records, want %d", recovered, want)
	}
	return nil
}

// checkConserved fails unless the station accounted for exactly the
// frames and invocations the benchmark's own reassembly of them found.
func checkConserved(m station.Metrics, frames, invocations int) error {
	if m.FramesAccepted != uint64(frames) || m.FramesRejected != 0 {
		return fmt.Errorf("station accepted %d frames and rejected %d, want %d and 0", m.FramesAccepted, m.FramesRejected, frames)
	}
	if got := m.InvocationsRecovered + m.InvocationsDiscarded; got != uint64(invocations) {
		return fmt.Errorf("station recovered %d + discarded %d invocations, want %d in total", m.InvocationsRecovered, m.InvocationsDiscarded, invocations)
	}
	return nil
}

// quality scores a published snapshot as the paper scores a profile: the
// mean estimation error of its trusted models against the fleet's true
// branch behaviour, and the cycles its suggested layout saves.
func (in *stationInputs) quality(snap *station.Snapshot) (cyclesSaved, mae float64, err error) {
	layouts := make(map[string][]ir.BlockID)
	sum, n := 0.0, 0
	for _, pm := range snap.Procs {
		if pm.Layout != nil {
			order := make([]ir.BlockID, len(pm.Layout))
			for i, b := range pm.Layout {
				order[i] = ir.BlockID(b)
			}
			layouts[pm.Proc] = order
		}
		if !pm.Trusted || len(pm.Branches) == 0 {
			continue
		}
		var oracle markov.EdgeProbs
		for _, p := range in.prof.CFG.Procs {
			if p.Name == pm.Proc {
				oracle = profile.OracleProbs(in.prof.Meta.ProcByName[p.Name], p, in.oracle)
			}
		}
		e := 0.0
		for _, b := range pm.Branches {
			e += math.Abs(b.Prob - oracle[[2]ir.BlockID{ir.BlockID(b.From), ir.BlockID(b.To)}])
		}
		sum += e / float64(len(pm.Branches))
		n++
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("station published no trusted model at epoch %d", snap.Epoch)
	}
	before, after, err := measurePair(nil, in.measureSrc, in.workload, in.seed, func() *isa.CostModel { return nil },
		compile.Options{Layouts: layouts}, &replayStats{})
	if err != nil {
		return 0, 0, err
	}
	return 100 * (1 - float64(after)/float64(before)), sum / float64(n), nil
}

// httpLoad is the second client: model reads on an open-loop schedule,
// and an epoch cut whenever the pusher asks for one, all on one
// keep-alive connection.
type httpLoad struct {
	client  *http.Client
	base    string
	period  time.Duration
	cutReq  chan struct{}
	cutRes  chan error
	stopCh  chan struct{}
	done    chan struct{}
	reads   []float64 // µs from when each read was due
	late    []float64 // ms the generator sent each read after it was due
	cuts    []float64 // ms per epoch cut round trip
	ops     int
	failed  int
	lastErr error
}

func startHTTPLoad(base string, start time.Time) *httpLoad {
	l := &httpLoad{
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
		base:   base, period: time.Second / readsPerSecond,
		cutReq: make(chan struct{}), cutRes: make(chan error), stopCh: make(chan struct{}), done: make(chan struct{}),
	}
	go l.run(start)
	return l
}

func (l *httpLoad) run(start time.Time) {
	defer close(l.done)
	next := start
	timer := time.NewTimer(time.Until(next))
	defer timer.Stop()
	for {
		select {
		case <-l.stopCh:
			return
		case <-l.cutReq:
			t0 := time.Now()
			err := l.do(http.MethodPost, "/v1/epoch")
			l.cuts = append(l.cuts, ms(time.Since(t0)))
			l.cutRes <- err
		case <-timer.C:
			// One read per wake-up: an overdue schedule fires the timer
			// again at once, and a pending cut or stop still gets its turn.
			l.late = append(l.late, ms(time.Since(next)))
			l.do(http.MethodGet, "/v1/models") //nolint:errcheck // counted in failed
			l.reads = append(l.reads, us(time.Since(next)))
			next = next.Add(l.period)
			timer.Reset(time.Until(next))
		}
	}
}

func (l *httpLoad) do(method, path string) error {
	l.ops++
	req, err := http.NewRequest(method, l.base+path, nil)
	if err == nil {
		var resp *http.Response
		if resp, err = l.client.Do(req); err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && (resp.StatusCode < 200 || resp.StatusCode > 299) {
				err = fmt.Errorf("%s %s: %s", method, path, resp.Status)
			}
		}
	}
	if err != nil {
		l.failed++
		l.lastErr = err
	}
	return err
}

func (l *httpLoad) cut() error {
	l.cutReq <- struct{}{}
	return <-l.cutRes
}

func (l *httpLoad) stop() {
	close(l.stopCh)
	<-l.done
	l.client.CloseIdleConnections()
}

// served is a station listening on loopback TCP ingest and HTTP.
type served struct {
	srv       *station.Server
	ln, hl    net.Listener
	hs        *http.Server
	tcp, http chan error
}

func serve(srv *station.Server) (*served, error) {
	s := &served{srv: srv, tcp: make(chan error, 1), http: make(chan error, 1)}
	var err error
	if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	if s.hl, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		s.ln.Close()
		return nil, err
	}
	s.hs = &http.Server{Handler: srv.Handler()}
	go func() { s.tcp <- srv.ServeTCP(s.ln) }()
	go func() { s.http <- s.hs.Serve(s.hl) }()
	return s, nil
}

// shutdown stops both listeners, waits for their loops, and closes the
// station.
func (s *served) shutdown() error {
	s.hs.Close()
	s.ln.Close()
	err := <-s.tcp
	if herr := <-s.http; !errors.Is(herr, http.ErrServerClosed) && err == nil {
		err = herr
	}
	if cerr := s.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

func runStation(o options, ck *checker) (*result, error) {
	res := newResult(o.trace)
	in, err := stationInputsFor(o)
	if err != nil {
		return nil, err
	}
	defer in.release()
	scratch, err := scratchDir(o, "station")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	walDir := filepath.Join(scratch, "previous")
	walRecords, err := writeWAL(in, walDir)
	if err != nil {
		return nil, err
	}
	replayInvocations := 0
	for _, m := range in.motes {
		replayInvocations += m.invocations
	}

	cal := newMixedCalibrator()
	defer cal.close()

	// Set-up is a restart: station.New over the previous pass's data
	// directory, replaying its WAL. Each repetition starts from a fresh
	// copy; the last one serves the timed phase.
	var setups scaled
	var srv *station.Server
	for rep := 0; rep < o.sizes.restarts; rep++ {
		dir := filepath.Join(scratch, fmt.Sprintf("restart%d", rep))
		if err := copyDir(walDir, dir); err != nil {
			return nil, err
		}
		mark := cal.sample(stationCalSamples)
		t0 := time.Now()
		s, err := station.New(stationConfig(in, dir))
		setups.add(time.Since(t0).Seconds(), mark)
		if err != nil {
			return nil, err
		}
		ck.add(checkReplay(s.Metrics().WALRecordsRecovered, walRecords))
		if rep < o.sizes.restarts-1 {
			if err := s.Close(); err != nil {
				return nil, err
			}
			continue
		}
		srv = s
	}
	sv, err := serve(srv)
	if err != nil {
		srv.Close()
		return nil, err
	}
	tcp, err := pushPhase(o, in, sv, cal, res, ck, replayInvocations)
	if serr := sv.shutdown(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	if o.trace {
		res.set("bench.ref_ms", cal.refMS())
		return res, traceStation(o, in, res, tcp, walDir, replayInvocations)
	}
	cycles, mae, err := in.quality(tcp.snap)
	ck.add(err)
	const w = 3 * stationCalSamples
	ack := median(tcp.scaledAcks(cal, w)) / 1e3
	var cuts []float64
	for j, c := range tcp.scoredCuts() {
		cuts = append(cuts, c*cal.scale(tcp.ackWins[j].mark, w))
	}
	cut := median(cuts)
	logUnscaled(1/tcp.windowSecs.rawMedian(), geomean([]float64{median(slices.Clone(tcp.acks)) / 1e3, median(slices.Clone(tcp.scoredCuts()))}), setups.rawMedian())
	res.set("setup_s", setups.median(cal, w))
	res.set("ops_per_s", 1/tcp.windowSecs.median(cal, w))
	res.set("latency_ms_geomean", geomean([]float64{ack, cut}))
	res.set("cycles_saved_pct", cycles)
	res.set("mae", mae)
	res.set("alloc_kb_per_op", float64(tcp.use.alloc)/float64(tcp.pushed)/1024)
	res.set("peak_heap_mb", float64(tcp.heap)/(1<<20))
	return res, nil
}

// tcpPhase is what the timed push phase measured.
type tcpPhase struct {
	windowSecs scaled    // push seconds per ACKed frame, per cut window
	acks       []float64 // µs per frame, Send to ACK
	ackWins    []ackWindow
	reads      []float64 // µs per model read, from when it was due
	cuts       []float64 // ms per epoch cut round trip
	late       []float64 // ms the read generator ran behind
	use        usage
	heap       uint64            // live heap after scoredWindows windows
	snap       *station.Snapshot // published after scoredWindows windows
	pushed     int
	depth      int
	recovered  float64 // recovered over recovered plus discarded invocations
}

// ackWindow is one cut window's share of the ACK times: they end at
// index end, and were measured after calibrator mark.
type ackWindow struct{ end, mark int }

// scaledAcks are the ACK times, each scaled by the reference samples
// around its window.
func (t *tcpPhase) scaledAcks(cal *calibrator, w int) []float64 {
	out := make([]float64, 0, len(t.acks))
	lo := 0
	for _, win := range t.ackWins {
		f := cal.scale(win.mark, w)
		for _, a := range t.acks[lo:win.end] {
			out = append(out, a*f)
		}
		lo = win.end
	}
	return out
}

// scoredCuts are the round trips of the first scoredWindows cuts: each
// cut costs more as the station's history grows, so a run that got
// further would otherwise report slower cuts.
func (t *tcpPhase) scoredCuts() []float64 { return t.cuts[:min(len(t.cuts), scoredWindows)] }

// score records the station's state after a fixed amount of ingest, so
// runs that got further in the time allowed are still compared on the
// same work: the published snapshot, and the heap the station retains
// (live bytes after a collection; the peak between collections depends
// on where they happen to fall).
func (t *tcpPhase) score(s *station.Server) {
	t.snap = s.Latest()
	runtime.GC()
	_, t.heap = newHeapMeter().read()
}

// pushPhase is the timed phase: the closed-loop pusher on this goroutine
// and the open-loop reader on another, both against sv.
func pushPhase(o options, in *stationInputs, sv *served, cal *calibrator, res *result, ck *checker, replayInvocations int) (*tcpPhase, error) {
	out := &tcpPhase{acks: make([]float64, 0, 1<<17)}
	sess, err := station.DialPush(sv.ln.Addr().String(), station.PushConfig{Retries: pushRetries})
	if err != nil {
		return nil, err
	}
	seconds := o.seconds
	if o.trace {
		seconds /= 2
	}
	mark := cal.sample(stationCalSamples)
	ph := startPhase()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	load := startHTTPLoad("http://"+sv.hl.Addr().String(), start)
	var window time.Duration
	invocations, since := replayInvocations, 0
	one := make([][]byte, 1)
	timeUp := false
	for k := 1; k < in.passes && !timeUp; k++ {
		for j, m := range in.motes {
			if time.Now().After(deadline) {
				timeUp = true
				break
			}
			for i := m.first; i < m.first+m.n; i++ {
				one[0] = in.frame(k, i)
				t0 := time.Now()
				err := sess.Send(one)
				d := time.Since(t0)
				if err != nil {
					load.stop()
					sess.Close()
					return nil, fmt.Errorf("push: %w", err)
				}
				out.acks = append(out.acks, us(d))
				window += d
			}
			out.pushed += m.n
			invocations += m.invocations
			since += m.n
			if o.trace && j%16 == 0 {
				out.depth = max(out.depth, maxDepth(sv.srv))
			}
			if since >= in.cutEvery {
				out.windowSecs.add(window.Seconds()/float64(since), mark)
				out.ackWins = append(out.ackWins, ackWindow{len(out.acks), mark})
				since, window = 0, 0
				if err := load.cut(); err != nil {
					ck.add(fmt.Errorf("epoch cut: %w", err))
				}
				if len(out.windowSecs.raw) == scoredWindows {
					out.score(sv.srv)
				}
				mark = cal.sample(stationCalSamples)
			}
		}
	}
	load.stop()
	out.use = ph.end()
	out.ackWins = append(out.ackWins, ackWindow{len(out.acks), mark}) // the window left open
	cal.sample(stationCalSamples)
	st := sess.Stats()
	sess.Close()
	out.reads, out.cuts, out.late = load.reads, load.cuts, load.late

	// Seal the window the timed phase left open, then check the station
	// accounted for everything.
	if _, err := sv.srv.CutEpoch(); err != nil {
		return nil, err
	}
	if out.snap == nil {
		out.score(sv.srv)
	}
	m := sv.srv.Metrics()
	ck.add(checkPush(st, out.pushed))
	ck.add(checkConserved(m, in.frames+out.pushed, invocations))
	if load.failed > 0 {
		ck.add(fmt.Errorf("station HTTP: %d of %d requests failed, last: %v", load.failed, load.ops, load.lastErr))
	}
	res.Attempted += st.Frames + load.ops
	res.Failed += st.Failed + load.failed
	if len(out.windowSecs.raw) == 0 || len(out.reads) == 0 {
		return nil, fmt.Errorf("station: timed phase too short (%d frames, %d cuts, %d reads)", len(out.acks), len(out.cuts), len(out.reads))
	}
	if total := m.InvocationsRecovered + m.InvocationsDiscarded; total > 0 {
		out.recovered = float64(m.InvocationsRecovered) / float64(total)
	}
	return out, nil
}

// untracedPasses restarts a durable station over a copy of the WAL and
// times passes 1..passes through it with nothing traced.
func untracedPasses(in *stationInputs, walDir string, passes int) (time.Duration, error) {
	dir := filepath.Join(filepath.Dir(walDir), "untraced")
	if err := copyDir(walDir, dir); err != nil {
		return 0, err
	}
	s, err := station.New(stationConfig(in, dir))
	if err != nil {
		return 0, err
	}
	defer s.Close()
	since := 0
	t0 := time.Now()
	for k := 1; k <= passes; k++ {
		if since, err = ingestPass(nil, s, in, k, since, "", "", nil); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// traceStation is the traced run: the same frames and cut cadence fed to
// two in-process stations through IngestFrame and CutEpoch, one durable
// (restarted over the previous pass's WAL) and one in memory, so WAL and
// snapshot costs come out as differences of public calls.
func traceStation(o options, in *stationInputs, res *result, tcp *tcpPhase, walDir string, replayInvocations int) error {
	tr := newTracer()
	passes := min(4, (in.passes-1)/2)

	tr.op("station.setup")
	var prof *compile.Output
	if err := tr.do("compile.build_profile", func() (err error) {
		prof, err = compile.Build(in.src, compile.Options{Instrument: compile.ModeTimestamps})
		return err
	}); err != nil {
		return err
	}
	paths, models := 0, 0
	for _, p := range prof.CFG.Procs {
		if len(p.BranchBlocks()) == 0 {
			continue
		}
		tr.do("tomography.model", func() error {
			m, err := tomography.NewModelOpts(prof, p.Name, mote.StaticNotTaken{}, enumOpts, tomography.ModelOptions{})
			if err == nil {
				paths += len(m.Paths)
				models++
			}
			return nil
		})
	}
	var mem, dur *station.Server
	if err := tr.do("station.new_mem", func() (err error) {
		mem, err = station.New(stationConfig(in, ""))
		return err
	}); err != nil {
		return err
	}
	defer mem.Close()
	dir := filepath.Join(filepath.Dir(walDir), "traced")
	if err := copyDir(walDir, dir); err != nil {
		return err
	}
	if err := tr.do("station.new_wal", func() (err error) {
		dur, err = station.New(stationConfig(in, dir))
		return err
	}); err != nil {
		return err
	}
	defer dur.Close()
	tr.end()

	// Bring the in-memory station to the state the durable one replayed.
	since, err := ingestPass(nil, mem, in, 0, 0, "", "", nil)
	if err != nil {
		return err
	}
	if since > 0 {
		if _, err := mem.CutEpoch(); err != nil {
			return err
		}
	}
	depth := tcp.depth
	sinceDur, sinceMem := 0, 0
	for k := 1; k <= passes; k++ {
		tr.op("station.pass")
		sinceDur, err = ingestPass(tr, dur, in, k, sinceDur, "station.ingest", "station.cut", &depth)
		tr.end()
		if err != nil {
			return err
		}
	}
	for k := 1; k <= passes; k++ {
		tr.op("station.pass_mem")
		sinceMem, err = ingestPass(tr, mem, in, k, sinceMem, "station.ingest_mem", "station.cut_mem", &depth)
		tr.end()
		if err != nil {
			return err
		}
	}
	// Match: after the same passes, the durable station's snapshot equals
	// the in-memory one's, and its counts equal the benchmark's own.
	durSnap, err := dur.CutEpoch()
	if err != nil {
		return err
	}
	memSnap, err := mem.CutEpoch()
	if err != nil {
		return err
	}
	match := reflect.DeepEqual(durSnap, memSnap) &&
		checkConserved(dur.Metrics(), in.frames*(1+passes), replayInvocations*(1+passes)) == nil

	// The durable passes again, untraced, on a second restart over the
	// same WAL, for the tracing overhead.
	overhead, err := untracedPasses(in, walDir, passes)
	if err != nil {
		return err
	}

	// The trace layer on the same frames: decode each pushed frame, then
	// reassemble each mote's first traced upload.
	tr.op("trace.frames")
	decBytes, decFrames, reasmFrames := 0, 0, 0
	for k := 1; k <= passes; k++ {
		for _, m := range in.motes {
			pkts := make([]trace.Packet, m.n)
			if err := tr.do("trace.decode", func() error {
				for i := range pkts {
					f := in.frame(k, m.first+i)
					if err := pkts[i].UnmarshalBinary(f); err != nil {
						return err
					}
					decBytes += len(f)
				}
				return nil
			}); err != nil {
				tr.end()
				return err
			}
			decFrames += m.n
			if k > 1 {
				continue
			}
			if err := tr.do("trace.reassemble", func() error {
				r := trace.NewReassemblerAt(m.id, uint32(m.n))
				for _, p := range pkts {
					if err := r.Add(p); err != nil {
						return err
					}
				}
				r.Recover()
				return nil
			}); err != nil {
				tr.end()
				return err
			}
			reasmFrames += m.n
		}
	}
	tr.end()

	tr.op("station.models")
	snap := dur.Latest()
	for i := 0; i < 50; i++ {
		tr.do("station.models_encode", func() error { _, err := json.Marshal(snap); return err })
	}
	tr.end()

	trusted, branchy := 0, 0
	for _, pm := range snap.Procs {
		if len(pm.Branches) > 0 || !pm.Trusted {
			branchy++
			if pm.Trusted {
				trusted++
			}
		}
	}
	ingest := median(tr.durations("station.ingest")) / 1e3
	ingestMem := median(tr.durations("station.ingest_mem")) / 1e3
	cut := median(tr.durations("station.cut")) / 1e6
	cutMem := median(tr.durations("station.cut_mem")) / 1e6
	d, a, _ := tr.self("compile.")
	res.set("compile.build_profile_ms", ms(d))
	res.set("compile.alloc_kb", float64(a)/1024)
	res.set("markov.paths", float64(paths))
	d, _, _ = tr.self("tomography.model")
	res.set("tomography.model_ms", ms(d))
	if branchy > 0 {
		res.set("tomography.trusted_frac", float64(trusted)/float64(branchy))
	}
	newMem, _, _ := tr.self("station.new_mem")
	newWAL, _, _ := tr.self("station.new_wal")
	res.set("station.replay_ms", ms(newWAL-newMem))
	res.set("station.replay_records", float64(dur.Metrics().WALRecordsRecovered))
	res.set("station.ingest_us_p50", ingest)
	res.set("station.ingest_mem_us_p50", ingestMem)
	sum := func(name string) float64 {
		s := 0.0
		for _, x := range tr.durations(name) {
			s += x
		}
		return s
	}
	perPass := float64(in.frames * passes)
	res.set("station.wal_us_per_frame", (sum("station.ingest")-sum("station.ingest_mem"))/perPass/1e3)
	res.set("station.ack_us_p50", median(tcp.acks))
	res.set("station.ack_us_p99", quantile(tcp.acks, 0.99))
	res.set("station.wire_us_p50", median(tcp.acks)-ingest)
	res.set("station.epoch_rtt_ms_p50", median(tcp.scoredCuts()))
	res.set("station.read_us_p50", median(tcp.reads))
	res.set("station.read_us_p99", quantile(tcp.reads, 0.99))
	res.set("station.cut_ms", cut)
	res.set("station.cut_mem_ms", cutMem)
	res.set("station.snapshot_persist_ms", cut-cutMem)
	res.set("station.queue_depth_max", float64(depth))
	res.set("station.recovered_frac", tcp.recovered)
	res.set("station.models_encode_us", median(tr.durations("station.models_encode"))/1e3)
	res.set("bench.generator_late_ms_p99", quantile(tcp.late, 0.99))
	dec, _, _ := tr.self("trace.decode")
	res.set("trace.decode_ns_per_frame", float64(dec)/float64(decFrames))
	res.set("trace.decode_mb_per_s", float64(decBytes)/dec.Seconds()/1e6)
	reasm, _, _ := tr.self("trace.reassemble")
	res.set("trace.reassemble_ns_per_frame", float64(reasm)/float64(reasmFrames))
	var traced time.Duration
	for _, s := range tr.spans {
		if s.Name == "station.pass" {
			traced += s.dur()
		}
	}
	res.set("trace_overhead_pct", 100*(float64(traced)-float64(overhead))/float64(overhead))
	res.set("untraced_share_pct", untracedShare(tr))
	res.set("replay_match", boolMetric(match))
	return tr.write(o.outDir, o.workload, o.seed)
}
