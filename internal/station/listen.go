package station

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"time"
)

// The wire ingest: CTP2 frames over stream and datagram transports.
//
// TCP carries length-prefixed frames (uint16 LE length, then the frame
// bytes) and answers each with one status byte — ACK for a frame that
// decoded, passed CRC, and was enqueued, NAK otherwise. The per-frame ack
// is what makes a stop-and-wait ARQ client (Push) work: a frame the
// channel or a proxy mangled is retransmitted instead of silently lost.
//
// UDP is fire-and-forget: one frame per datagram, no reply. It models the
// real deployment's uplink — the CRC and the reassembler's loss tolerance
// do the work acks would.

const (
	// AckByte and NakByte are the TCP per-frame replies.
	AckByte = 0x06 // ASCII ACK
	NakByte = 0x15 // ASCII NAK

	// maxWireFrame bounds a length prefix; the largest legal CTP2 frame
	// (85 records) is ~1 KB, so anything larger is protocol confusion.
	maxWireFrame = 2048

	// tcpIdleTimeout bounds how long a TCP client may take to deliver its
	// next frame, length prefix included. A client that goes silent
	// mid-stream is dropped instead of holding a goroutine and its buffer
	// forever.
	tcpIdleTimeout = time.Minute
)

// ServeTCP accepts framed-uplink connections until the listener closes.
// Each connection is served on its own goroutine; the per-shard queues
// bound memory, not the connection count.
func (s *Server) ServeTCP(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.closed.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.m.tcpConns.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	var hdr [2]byte
	buf := make([]byte, maxWireFrame)
	for {
		if err := conn.SetReadDeadline(time.Now().Add(s.idle)); err != nil {
			return
		}
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return // clean EOF, a dead or idle peer; either way the stream is over
		}
		n := int(binary.LittleEndian.Uint16(hdr[:]))
		if n == 0 || n > maxWireFrame {
			return // unframed garbage; no way to resynchronize a stream
		}
		if _, err := io.ReadFull(conn, buf[:n]); err != nil {
			return
		}
		status := byte(AckByte)
		if err := s.IngestFrame(buf[:n]); err != nil {
			if !errors.Is(err, ErrRejected) {
				return // closing down; drop the connection, client retries elsewhere
			}
			status = NakByte
			s.m.tcpNaks.Add(1)
		} else {
			s.m.tcpAcks.Add(1)
		}
		if _, err := conn.Write([]byte{status}); err != nil {
			return
		}
	}
}

// ServeUDP ingests one frame per datagram until the connection closes.
// Rejected frames are counted (FramesRejected) but draw no reply.
func (s *Server) ServeUDP(pc net.PacketConn) error {
	buf := make([]byte, maxWireFrame)
	for {
		n, _, err := pc.ReadFrom(buf)
		if err != nil {
			if s.closed.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.m.udpFrames.Add(1)
		s.IngestFrame(buf[:n]) //nolint:errcheck // fire-and-forget transport; rejects are counted
	}
}
