package station

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// PushStats is the accounting for one client push session.
type PushStats struct {
	// Frames is how many frames the session attempted; Acked how many the
	// station accepted; Retransmissions how many extra sends the
	// stop-and-wait ARQ spent on NAKs; Failed how many frames exhausted
	// their retry budget and were abandoned.
	Frames, Acked, Retransmissions, Failed int
}

// DefaultAckTimeout bounds how long a push session waits for the
// station's per-frame ACK/NAK byte when the caller does not choose a
// deadline. A station that accepts the connection but never answers
// (wedged, half-open, firewalled return path) would otherwise hang the
// client forever.
const DefaultAckTimeout = 10 * time.Second

// ErrAckTimeout reports that the station accepted a frame but its ACK
// never arrived within the configured deadline; the session is aborted
// (the connection state is unknown, so retrying on it would misattribute
// ACKs).
var ErrAckTimeout = errors.New("station: timed out waiting for ACK")

// PushConfig tunes a client push session.
type PushConfig struct {
	// Retries is the per-frame retransmission budget on NAK (< 0 selects
	// the default of 3).
	Retries int
	// AckTimeout bounds each wait for the station's ACK/NAK byte
	// (0 selects DefaultAckTimeout; negative disables the deadline).
	AckTimeout time.Duration
}

func (c PushConfig) withDefaults() PushConfig {
	if c.Retries < 0 {
		c.Retries = 3
	}
	if c.AckTimeout == 0 {
		c.AckTimeout = DefaultAckTimeout
	}
	return c
}

// PushSession is a long-lived client push connection: one TCP dial, any
// number of Send calls, one running PushStats. It is the wire half of the
// streaming fleet pipeline — cohorts of frames go out as they are
// simulated instead of a fleet's worth being materialized first — and is
// not safe for concurrent Send.
type PushSession struct {
	conn net.Conn
	cfg  PushConfig
	st   PushStats
}

// DialPush opens a push session to a station's TCP ingest.
func DialPush(addr string, cfg PushConfig) (*PushSession, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("station: push: %w", err)
	}
	return &PushSession{conn: conn, cfg: cfg.withDefaults()}, nil
}

// Send pushes one batch of frames through the session, accumulating into
// Stats. A transport error (including ErrAckTimeout) poisons the session:
// the connection state is unknown, so the caller should Close and redial.
func (s *PushSession) Send(frames [][]byte) error {
	return push(s.conn, frames, s.cfg, &s.st)
}

// Stats returns the session's accounting so far.
func (s *PushSession) Stats() PushStats { return s.st }

// Close releases the connection.
func (s *PushSession) Close() error { return s.conn.Close() }

// deadlineConn is the slice of net.Conn the push loop needs to bound ACK
// waits; the io.ReadWriter form keeps in-memory pipes testable.
type deadlineConn interface {
	SetReadDeadline(t time.Time) error
}

// push runs the stop-and-wait loop for one batch, accumulating into st
// (already-defaulted cfg; the io.ReadWriter form keeps in-memory pipes
// testable).
func push(conn io.ReadWriter, frames [][]byte, cfg PushConfig, st *PushStats) error {
	var hdr [2]byte
	var status [1]byte
	for _, f := range frames {
		if len(f) == 0 || len(f) > maxWireFrame {
			st.Frames++
			st.Failed++ // unsendable on this transport; the wire would reject it
			continue
		}
		st.Frames++
		binary.LittleEndian.PutUint16(hdr[:], uint16(len(f)))
		acked := false
		for attempt := 0; attempt <= cfg.Retries; attempt++ {
			if attempt > 0 {
				st.Retransmissions++
			}
			if _, err := conn.Write(hdr[:]); err != nil {
				return fmt.Errorf("station: push: %w", err)
			}
			if _, err := conn.Write(f); err != nil {
				return fmt.Errorf("station: push: %w", err)
			}
			if dc, ok := conn.(deadlineConn); ok && cfg.AckTimeout > 0 {
				_ = dc.SetReadDeadline(time.Now().Add(cfg.AckTimeout))
			}
			if _, err := io.ReadFull(conn, status[:]); err != nil {
				if isTimeout(err) {
					return fmt.Errorf("%w after %v", ErrAckTimeout, cfg.AckTimeout)
				}
				return fmt.Errorf("station: push: %w", err)
			}
			if status[0] == AckByte {
				acked = true
				break
			}
		}
		if acked {
			st.Acked++
		} else {
			st.Failed++
		}
	}
	return nil
}

// isTimeout reports whether err is a read-deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
