package station

import "time"

// Abort exposes the crash-simulation hook to the external test package:
// stop the workers and drop the WAL handle without the final epoch cut or
// a clean sync, exactly as if the process had died.
func (s *Server) Abort() { s.abort() }

// SetIdleTimeout shortens the TCP ingest's idle deadline; call it before
// ServeTCP.
func (s *Server) SetIdleTimeout(d time.Duration) { s.idle = d }
