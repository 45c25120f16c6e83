package station_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"codetomo/internal/compile"
	"codetomo/internal/fleet"
	"codetomo/internal/mote"
	"codetomo/internal/station"
	"codetomo/internal/trace"
)

const testProgram = `
func work(v int) int {
	var r int;
	r = 0;
	if (v > 500) {
		r = r + v % 13;
	}
	return r;
}

func main() {
	var i int;
	var acc int;
	acc = 0;
	for (i = 0; i < 200; i = i + 1) {
		acc = acc + work(sense());
	}
	debug(acc);
}`

// simulateFleet runs a small deployment and returns each mote's frames as
// the channel delivered them, in mote order. Pure function of motes, so
// every test sees the identical traffic.
func simulateFleet(t testing.TB, motes int) [][][]byte {
	t.Helper()
	prof, err := compile.Build(testProgram, compile.Options{Instrument: compile.ModeTimestamps})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]fleet.MoteSpec, motes)
	for i := range specs {
		specs[i] = fleet.MoteSpec{
			ID:               uint16(i),
			Workload:         "gaussian",
			Seed:             1 + int64(i)*7919,
			ClockOffsetTicks: uint64(i) * 1000,
		}
	}
	mc := mote.DefaultConfig()
	mc.TickDiv = 8
	results, _, err := fleet.SimulateStream(fleet.SimConfig{
		Prog:       prof.Code,
		Mote:       mc,
		MaxCycles:  2_000_000_000,
		Workers:    2,
		Link:       fleet.LinkConfig{EventsPerPacket: 16, Seed: 99},
		KeepFrames: true,
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	perMote := make([][][]byte, len(results))
	for i := range results {
		perMote[i] = results[i].Frames
	}
	return perMote
}

// allFrames concatenates every mote's frames in mote order.
func allFrames(perMote [][][]byte) [][]byte {
	var frames [][]byte
	for _, fs := range perMote {
		frames = append(frames, fs...)
	}
	return frames
}

// pushFrames uploads frames over one push session and returns its stats.
func pushFrames(addr string, frames [][]byte, cfg station.PushConfig) (station.PushStats, error) {
	s, err := station.DialPush(addr, cfg)
	if err != nil {
		return station.PushStats{}, err
	}
	defer s.Close()
	err = s.Send(frames)
	return s.Stats(), err
}

func newStation(t testing.TB, cfg station.Config) *station.Server {
	t.Helper()
	cfg.Program = testProgram
	s, err := station.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// splitFrames cuts each mote's delivery in half: the two epoch windows
// every determinism test feeds.
func splitFrames(perMote [][][]byte) (first, second [][][]byte) {
	first = make([][][]byte, len(perMote))
	second = make([][][]byte, len(perMote))
	for i, frames := range perMote {
		mid := len(frames) / 2
		first[i] = frames[:mid]
		second[i] = frames[mid:]
	}
	return first, second
}

func ingestAll(t testing.TB, s *station.Server, perMote [][][]byte, interleave bool) {
	t.Helper()
	if !interleave {
		for _, frames := range perMote {
			for _, f := range frames {
				if err := s.IngestFrame(f); err != nil {
					t.Fatal(err)
				}
			}
		}
		return
	}
	// Round-robin across motes, highest mote first: a maximally different
	// arrival order from the serial feed.
	for i := 0; ; i++ {
		sent := false
		for m := len(perMote) - 1; m >= 0; m-- {
			if i < len(perMote[m]) {
				if err := s.IngestFrame(perMote[m][i]); err != nil {
					t.Fatal(err)
				}
				sent = true
			}
		}
		if !sent {
			return
		}
	}
}

// Epoch snapshots must be a pure function of the frame multiset per
// window: one shard fed serially and four shards fed interleaved (and
// reversed) must publish identical models, epoch for epoch.
func TestShardedIngestMatchesSerial(t *testing.T) {
	uploads := simulateFleet(t, 4)
	first, second := splitFrames(uploads)

	run := func(shards int, interleave bool) []*station.Snapshot {
		s := newStation(t, station.Config{Shards: shards})
		defer s.Close()
		var snaps []*station.Snapshot
		for _, window := range [][][][]byte{first, second} {
			ingestAll(t, s, window, interleave)
			snap, err := s.CutEpoch()
			if err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, snap)
		}
		return snaps
	}

	serial := run(1, false)
	sharded := run(4, true)
	for i := range serial {
		if !reflect.DeepEqual(serial[i], sharded[i]) {
			a, _ := json.Marshal(serial[i])
			b, _ := json.Marshal(sharded[i])
			t.Fatalf("epoch %d diverged between 1-shard serial and 4-shard interleaved ingest:\n%s\n%s", i+1, a, b)
		}
	}
	// The data must actually carry signal: work has 800 fleet samples and
	// should be a trusted, layout-bearing model by epoch 2.
	var work *station.ProcModel
	for i := range serial[1].Procs {
		if serial[1].Procs[i].Proc == "work" {
			work = &serial[1].Procs[i]
		}
	}
	if work == nil || !work.Trusted || len(work.Layout) == 0 || len(work.Branches) == 0 {
		t.Fatalf("work model not trusted after two epochs: %+v", work)
	}
}

// A station that crashes mid-epoch must resume from its WAL with the
// open window intact: finishing the epoch after restart yields the same
// snapshot as never having crashed.
func TestCrashMidEpochResumesWarm(t *testing.T) {
	uploads := simulateFleet(t, 4)
	first, second := splitFrames(uploads)
	cfg := func(dir string) station.Config {
		return station.Config{Shards: 2, DataDir: dir}
	}

	// Uninterrupted reference run.
	ref := newStation(t, cfg(t.TempDir()))
	ingestAll(t, ref, first, false)
	if _, err := ref.CutEpoch(); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, ref, second, false)
	want, err := ref.CutEpoch()
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()

	// Crashing run: epoch 1 sealed, epoch 2 half-filled, then the process
	// dies without flushing.
	dir := t.TempDir()
	s1 := newStation(t, cfg(dir))
	ingestAll(t, s1, first, false)
	if _, err := s1.CutEpoch(); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, s1, second[:2], false)
	s1.Abort()

	// Restart replays the WAL; the open window resumes where it stopped.
	s2 := newStation(t, cfg(dir))
	defer s2.Close()
	if got := s2.Epoch(); got != 1 {
		t.Fatalf("epoch after replay = %d, want 1", got)
	}
	ingestAll(t, s2, second[2:], false)
	got, err := s2.CutEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(want)
		t.Fatalf("resumed epoch 2 differs from uninterrupted run:\ngot  %s\nwant %s", a, b)
	}
	if rec := s2.Metrics().WALRecordsRecovered; rec == 0 {
		t.Fatal("restart recovered no WAL records")
	}
}

// walRecord frames one WAL record as the station writes it: type,
// payload length, CRC-32C of the three, payload.
func walRecord(kind byte, payload []byte) []byte {
	crc := crc32.MakeTable(crc32.Castagnoli)
	rec := binary.LittleEndian.AppendUint32([]byte{kind}, uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Update(crc32.Checksum(rec, crc), crc, payload))
	return append(rec, payload...)
}

// FuzzWALRecover appends arbitrary bytes to a valid log, as a crash
// mid-append may leave them. Restart must never fail and must lose no
// original record; what it keeps past them is a prefix of the appended
// bytes, since a tail can hold well-formed records of its own (an empty
// cut is nine bytes with its checksum).
func FuzzWALRecover(f *testing.F) {
	first, second := splitFrames(simulateFleet(f, 1))
	dir := f.TempDir()
	s := newStation(f, station.Config{Shards: 1, DataDir: dir})
	ingestAll(f, s, first, false)
	if _, err := s.CutEpoch(); err != nil {
		f.Fatal(err)
	}
	ingestAll(f, s, [][][]byte{second[0][:2]}, false)
	s.Abort()
	log, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		f.Fatal(err)
	}
	records := uint64(len(first[0]) + 1 + 2)

	frame := second[0][2]
	f.Add([]byte{})
	f.Add([]byte{'F', 0xff, 0xff})
	f.Add(append(walRecord('F', frame)[:9], make([]byte, len(frame))...))
	f.Add(walRecord('C', []byte{1, 2, 3}))
	f.Add([]byte{'C', 0, 0, 0, 0})
	f.Add(walRecord('C', nil))
	f.Add(walRecord('F', frame))
	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		wal := filepath.Join(dir, "wal.log")
		full := append(append([]byte(nil), log...), tail...)
		if err := os.WriteFile(wal, full, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := station.New(station.Config{Program: testProgram, Shards: 1, DataDir: dir})
		if err != nil {
			t.Fatalf("restart failed on tail %x: %v", tail, err)
		}
		s.Abort()
		if got := s.Metrics().WALRecordsRecovered; got < records {
			t.Fatalf("recovered %d records, want at least the %d originals", got, records)
		}
		kept, err := os.ReadFile(wal)
		if err != nil {
			t.Fatal(err)
		}
		if len(kept) < len(log) || !bytes.Equal(kept, full[:len(kept)]) {
			t.Fatalf("recovered log of %d bytes is not the %d-byte original plus a prefix of the tail", len(kept), len(log))
		}
	})
}

// checkTailTruncated appends tail to a sealed one-epoch log and restarts
// the station over it: the tail must be truncated away, leaving every
// original record, the original epoch and the original file.
func checkTailTruncated(t *testing.T, uploads [][][]byte, tail []byte) {
	t.Helper()
	dir := t.TempDir()
	s1 := newStation(t, station.Config{Shards: 1, DataDir: dir})
	ingestAll(t, s1, uploads, false)
	if _, err := s1.CutEpoch(); err != nil {
		t.Fatal(err)
	}
	s1.Abort()

	wal := filepath.Join(dir, "wal.log")
	clean, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, append(clean, tail...), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := station.New(station.Config{Program: testProgram, Shards: 1, DataDir: dir})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s2.Close()
	if got := s2.Epoch(); got != 1 {
		t.Fatalf("epoch after torn-tail recovery = %d, want 1", got)
	}
	if got, want := s2.Metrics().WALRecordsRecovered, uint64(len(allFrames(uploads))+1); got != want {
		t.Fatalf("recovered %d records, want %d (every frame and the cut)", got, want)
	}
	fi, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(len(clean)) {
		t.Fatalf("wal is %d bytes, want it truncated back to %d", fi.Size(), len(clean))
	}
}

// A torn trailing WAL record — the crash happened mid-append — must be
// truncated away, not poison recovery: a header cut short, a frame whose
// header landed but whose payload is zero-filled (what a power loss can
// leave once the file length was extended), and a cut with a payload.
func TestWALTornTailRecovery(t *testing.T) {
	uploads := simulateFleet(t, 2)
	frame := allFrames(uploads)[0]
	tails := map[string][]byte{
		"torn header":         {'F', 0xff, 0xff},
		"zero-filled payload": append(walRecord('F', frame)[:9], make([]byte, len(frame))...),
		"cut with payload":    walRecord('C', []byte{0}),
	}
	for name, tail := range tails {
		t.Run(name, func(t *testing.T) { checkTailTruncated(t, uploads, tail) })
	}
}

// Five stray bytes that read as an unchecksummed empty cut — what an
// append that tore after its first bytes can leave — must not replay as
// an epoch cut.
func TestWALStrayCutNotReplayed(t *testing.T) {
	checkTailTruncated(t, simulateFleet(t, 2), []byte{'C', 0, 0, 0, 0})
}

// A log that does not open with the WAL magic, such as one written in an
// older framing, is refused, and left as it was.
func TestWALWithoutMagicRefused(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "wal.log")
	old := []byte{'C', 0, 0, 0, 0}
	if err := os.WriteFile(wal, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := station.New(station.Config{Program: testProgram, Shards: 1, DataDir: dir}); err == nil {
		t.Fatal("station started over a log without the WAL magic")
	}
	if got, err := os.ReadFile(wal); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("refused log changed to %x (%v), want %x", got, err, old)
	}
}

// A TCP client that goes silent mid-frame must be dropped once the idle
// deadline passes, not hold its connection forever.
func TestServeTCPDropsStalledClient(t *testing.T) {
	s := newStation(t, station.Config{Shards: 1})
	defer s.Close()
	s.SetIdleTimeout(100 * time.Millisecond)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go s.ServeTCP(l)

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0x10}); err != nil { // half a length prefix
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read on a stalled connection = %d bytes, %v; want the station to close it (EOF)", n, err)
	}
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Fatalf("stalled connection closed after %v", elapsed)
	}
}

// The TCP ingest must ACK good frames, NAK damaged ones, and survive a
// client that retransmits on NAK.
func TestServeTCPAckNak(t *testing.T) {
	uploads := simulateFleet(t, 2)
	s := newStation(t, station.Config{Shards: 2})
	defer s.Close()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go s.ServeTCP(l)

	frames := allFrames(uploads)
	// Damage one frame's CRC: every transmission of it will NAK.
	bad := append([]byte(nil), frames[0]...)
	bad[len(bad)-1] ^= 0xff
	frames = append(frames, bad)

	st, err := pushFrames(l.Addr().String(), frames, station.PushConfig{Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Acked != len(frames)-1 || st.Failed != 1 {
		t.Fatalf("push stats %+v, want %d acked and 1 failed", st, len(frames)-1)
	}
	if st.Retransmissions != 2 {
		t.Fatalf("Retransmissions = %d, want 2 (retry budget on the damaged frame)", st.Retransmissions)
	}
	m := s.Metrics()
	if m.FramesAccepted != uint64(len(frames)-1) || m.FramesRejected != 3 || m.TCPNaks != 3 {
		t.Fatalf("metrics %+v, want %d accepted, 3 rejected, 3 naks", m, len(frames)-1)
	}
	snap, err := s.CutEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", snap.Epoch)
	}
}

// The UDP ingest is fire-and-forget: frames land without acks and count
// in the metrics.
func TestServeUDP(t *testing.T) {
	uploads := simulateFleet(t, 2)
	s := newStation(t, station.Config{Shards: 2})
	defer s.Close()

	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	go s.ServeUDP(pc)

	conn, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sent := 0
	for _, f := range uploads[0] {
		if _, err := conn.Write(f); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().FramesAccepted < uint64(sent) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d UDP frames accepted", s.Metrics().FramesAccepted, sent)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The HTTP surface: health, models, per-procedure lookup, metrics, and
// the explicit epoch cut.
func TestHTTPAPI(t *testing.T) {
	uploads := simulateFleet(t, 4)
	s := newStation(t, station.Config{Shards: 2})
	defer s.Close()
	ingestAll(t, s, uploads, false)

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/epoch", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var snap station.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Epoch != 1 || len(snap.Procs) == 0 {
		t.Fatalf("POST /v1/epoch returned %+v", snap)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Epoch  uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Epoch != 1 {
		t.Fatalf("/healthz = %+v", health)
	}

	resp, err = http.Get(srv.URL + "/v1/models/work")
	if err != nil {
		t.Fatal(err)
	}
	var one struct {
		Epoch uint64            `json:"epoch"`
		Model station.ProcModel `json:"model"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&one); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if one.Model.Proc != "work" || one.Model.Samples == 0 {
		t.Fatalf("/v1/models/work = %+v", one)
	}

	resp, err = http.Get(srv.URL + "/v1/models/nonesuch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown procedure returned %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m station.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.FramesAccepted == 0 || m.Epoch != 1 || len(m.ShardQueueDepth) != 2 {
		t.Fatalf("/v1/metrics = %+v", m)
	}
}

// EpochFrames cuts epochs automatically as traffic accumulates.
func TestAutoEpochCut(t *testing.T) {
	uploads := simulateFleet(t, 2)
	s := newStation(t, station.Config{Shards: 2, EpochFrames: 8})
	defer s.Close()
	ingestAll(t, s, uploads, false)
	deadline := time.Now().Add(5 * time.Second)
	for s.Epoch() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no automatic epoch cut after ingest")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Close seals the open window (flushing a final snapshot when durable)
// and rejects further ingest.
func TestCloseFlushesFinalEpoch(t *testing.T) {
	dir := t.TempDir()
	uploads := simulateFleet(t, 2)
	s := newStation(t, station.Config{Shards: 2, DataDir: dir})
	ingestAll(t, s, uploads, false)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.IngestFrame(uploads[0][0]); err != station.ErrClosed {
		t.Fatalf("ingest after close = %v, want ErrClosed", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "latest.json"))
	if err != nil {
		t.Fatalf("no final snapshot on disk: %v", err)
	}
	var snap station.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 1 {
		t.Fatalf("final snapshot epoch = %d, want 1", snap.Epoch)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil (idempotent)", err)
	}
}

// Rejected inputs at the ingest boundary: garbage, truncation, legacy
// frames.
func TestIngestRejects(t *testing.T) {
	uploads := simulateFleet(t, 1)
	s := newStation(t, station.Config{Shards: 1})
	defer s.Close()

	legacy := trace.Packet{MoteID: 0, Seq: 0, Version: trace.PacketVersionLegacy}
	lf, err := legacy.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{nil, []byte("CTTX"), uploads[0][0][:5], lf} {
		if err := s.IngestFrame(bad); err == nil {
			t.Fatalf("frame %q accepted, want rejection", bad)
		}
	}
	if got := s.Metrics().FramesRejected; got != 4 {
		t.Fatalf("FramesRejected = %d, want 4", got)
	}
}

// A station that accepts the TCP connection but never answers must not
// hang the client: the push session aborts with ErrAckTimeout once the
// configured ACK deadline expires.
func TestPushAckTimeout(t *testing.T) {
	uploads := simulateFleet(t, 1)
	frames := uploads[0]
	if len(frames) == 0 {
		t.Fatal("fleet produced no frames")
	}

	// A black hole: accept connections, drain bytes, never ACK.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				_, _ = io.Copy(io.Discard, conn)
			}()
		}
	}()

	start := time.Now()
	_, err = pushFrames(l.Addr().String(), frames, station.PushConfig{
		Retries:    2,
		AckTimeout: 150 * time.Millisecond,
	})
	if !errors.Is(err, station.ErrAckTimeout) {
		t.Fatalf("push error = %v, want ErrAckTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("push took %v; the deadline did not bound the wait", elapsed)
	}
}

// UDP delivery drops and duplicates frames. The epoch snapshot must be a
// pure function of the accepted frame multiset: a station fed a lossy,
// duplicated stream over UDP publishes the same models as one fed the
// surviving distinct frames exactly once, and the duplicates surface in
// the metrics instead of double-feeding the reassemblers.
func TestServeUDPDropDuplicate(t *testing.T) {
	frames := allFrames(simulateFleet(t, 2))

	// Deterministic channel: every 7th frame is dropped, every 5th of the
	// survivors is delivered twice.
	var distinct, delivered [][]byte
	for i, f := range frames {
		if i%7 == 3 {
			continue // dropped in flight
		}
		distinct = append(distinct, f)
		delivered = append(delivered, f)
		if i%5 == 0 {
			delivered = append(delivered, f) // duplicated in flight
		}
	}
	if len(distinct) == len(frames) || len(delivered) == len(distinct) {
		t.Fatalf("channel model degenerate: %d frames, %d distinct, %d delivered",
			len(frames), len(distinct), len(delivered))
	}

	lossy := newStation(t, station.Config{Shards: 2})
	defer lossy.Close()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	go lossy.ServeUDP(pc)

	conn, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, f := range delivered {
		if _, err := conn.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for lossy.Metrics().FramesAccepted < uint64(len(delivered)) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d UDP frames accepted",
				lossy.Metrics().FramesAccepted, len(delivered))
		}
		time.Sleep(5 * time.Millisecond)
	}
	lossySnap, err := lossy.CutEpoch()
	if err != nil {
		t.Fatal(err)
	}

	ref := newStation(t, station.Config{Shards: 2})
	defer ref.Close()
	for _, f := range distinct {
		if err := ref.IngestFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	refSnap, err := ref.CutEpoch()
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(lossySnap, refSnap) {
		a, _ := json.Marshal(lossySnap)
		b, _ := json.Marshal(refSnap)
		t.Fatalf("lossy UDP snapshot diverged from distinct-once reference:\n%s\n%s", a, b)
	}
	m := lossy.Metrics()
	if m.PacketsDuplicate == 0 {
		t.Fatal("duplicated frames were not counted as duplicate packets")
	}
	if m.PacketsLost == 0 {
		t.Fatal("dropped frames were not counted as lost packets")
	}
}
