package station

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"codetomo/internal/trace"
)

// The durable half of the station: an append-only write-ahead log of
// accepted frames and epoch cuts, plus JSON model snapshots.
//
// WAL framing: the log opens with the 4-byte walMagic, then holds records
// of 1 type byte ('F' frame, 'C' cut) | uint32 LE payload length |
// uint32 LE CRC-32C of the type, length and payload | payload. Frames are
// stored as received off the wire. Recovery reads records until the first
// torn or implausible one (a crash mid-append: a header or payload cut
// short, a checksum that fails, a frame that does not decode as a CTP2
// frame, a cut with a payload), truncates the file there, and replays the
// survivors; nothing before a torn tail is ever lost because records are
// appended before the frame is applied. The checksum keeps a torn tail
// that happens to parse, such as a stray empty cut, from replaying as a
// record. A log without the magic is refused untouched.

const (
	walFrame = 'F'
	walCut   = 'C'

	walMagic  = "CTW1"
	walHeader = 9 // type, length, checksum

	walName     = "wal.log"
	latestName  = "latest.json"
	snapshotDir = "snapshots"

	// walMaxPayload bounds a record's claimed length during recovery; the
	// largest legal frame is well under this, so anything bigger is a torn
	// or corrupted header.
	walMaxPayload = 4096
)

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// walRecord is one recovered log record: a cut, or a frame decoded at
// recovery with the length it had on the wire.
type walRecord struct {
	kind byte
	pkt  *trace.Packet
	size int
}

// store is the station's data directory handle.
type store struct {
	dir string

	mu sync.Mutex
	f  *os.File
}

// openStore opens (creating if needed) the data directory, recovers the
// WAL's intact prefix, truncates any torn tail, and returns the surviving
// records for replay together with the append handle.
func openStore(dir string) (*store, []walRecord, error) {
	if err := os.MkdirAll(filepath.Join(dir, snapshotDir), 0o755); err != nil {
		return nil, nil, fmt.Errorf("station: %w", err)
	}
	path := filepath.Join(dir, walName)
	recs, valid, err := recoverWAL(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("station: %w", err)
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("station: wal truncate: %w", err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("station: %w", err)
	}
	if valid == 0 {
		if _, err := f.WriteString(walMagic); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("station: wal header: %w", err)
		}
	}
	return &store{dir: dir, f: f}, recs, nil
}

// recoverWAL parses the log's intact prefix. A missing file, or one
// holding only part of the magic, is a new log (valid length 0); a torn
// tail is expected after a crash and marks the valid length. A log that
// does not start with the magic is an error, and is left as it is.
func recoverWAL(path string) ([]walRecord, int64, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("station: %w", err)
	}
	if len(data) < len(walMagic) && bytes.HasPrefix([]byte(walMagic), data) {
		return nil, 0, nil
	}
	if !bytes.HasPrefix(data, []byte(walMagic)) {
		return nil, 0, fmt.Errorf("station: %s has no %q header; refusing to replay or truncate it", path, walMagic)
	}
	var recs []walRecord
	off := int64(len(walMagic))
	for {
		rec, ok := parseWALRecord(data[off:])
		if !ok {
			break
		}
		recs = append(recs, rec)
		off += walHeader + int64(rec.size)
	}
	return recs, off, nil
}

// parseWALRecord decodes the record at the head of data, reporting false
// for a torn or implausible one.
func parseWALRecord(data []byte) (walRecord, bool) {
	if len(data) < walHeader {
		return walRecord{}, false
	}
	n := int64(binary.LittleEndian.Uint32(data[1:]))
	if n > walMaxPayload || walHeader+n > int64(len(data)) {
		return walRecord{}, false
	}
	payload := data[walHeader : walHeader+n]
	if walChecksum(data[:5], payload) != binary.LittleEndian.Uint32(data[5:]) {
		return walRecord{}, false
	}
	rec := walRecord{kind: data[0], size: int(n)}
	switch rec.kind {
	case walFrame:
		var p trace.Packet
		if p.UnmarshalBinary(payload) != nil || p.Version != trace.PacketVersionCRC {
			return walRecord{}, false
		}
		rec.pkt = &p
	case walCut:
		if n != 0 {
			return walRecord{}, false
		}
	default:
		return walRecord{}, false
	}
	return rec, true
}

// walChecksum is a record's CRC-32C over its type and length bytes (head)
// and its payload.
func walChecksum(head, payload []byte) uint32 {
	return crc32.Update(crc32.Checksum(head, walCRC), walCRC, payload)
}

func (st *store) append(kind byte, payload []byte) error {
	rec := make([]byte, walHeader+len(payload))
	rec[0] = kind
	binary.LittleEndian.PutUint32(rec[1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[5:], walChecksum(rec[:5], payload))
	copy(rec[walHeader:], payload)
	st.mu.Lock()
	defer st.mu.Unlock()
	_, err := st.f.Write(rec)
	return err
}

func (st *store) appendFrame(frame []byte) error { return st.append(walFrame, frame) }
func (st *store) appendCut() error               { return st.append(walCut, nil) }

// writeSnapshot persists one epoch's model publication: an immutable
// per-epoch file plus an atomically-replaced latest.json.
func (st *store) writeSnapshot(snap *Snapshot) error {
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("station: %w", err)
	}
	data = append(data, '\n')
	name := filepath.Join(st.dir, snapshotDir, fmt.Sprintf("epoch-%06d.json", snap.Epoch))
	if err := os.WriteFile(name, data, 0o644); err != nil {
		return fmt.Errorf("station: %w", err)
	}
	tmp := filepath.Join(st.dir, latestName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("station: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(st.dir, latestName)); err != nil {
		return fmt.Errorf("station: %w", err)
	}
	return nil
}

// Close syncs and releases the log.
func (st *store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil {
		return nil
	}
	err := st.f.Sync()
	if cerr := st.f.Close(); err == nil {
		err = cerr
	}
	st.f = nil
	return err
}
