// Package httpd is the HTTP server lifecycle of the repository's
// long-running binary, mhsd: its API and observability server stays open
// until interrupted, and exits through a context cancelled by
// SIGINT/SIGTERM and a graceful drain of in-flight requests instead of a
// hard exit.
package httpd

import (
	"context"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// SignalContext returns a copy of parent that is cancelled on SIGINT or
// SIGTERM. The returned stop releases the signal registration (a second
// signal after stop kills the process with the default disposition, so a
// stuck shutdown can still be interrupted).
func SignalContext(parent context.Context) (ctx context.Context, stop context.CancelFunc) {
	return signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
}

// Serve runs srv on ln until ctx is cancelled, then shuts the server down
// gracefully, waiting up to grace for in-flight requests to finish before
// closing them forcefully. It returns nil on a clean shutdown and the
// serve or shutdown error otherwise.
func Serve(ctx context.Context, srv *http.Server, ln net.Listener, grace time.Duration) error {
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err // the listener failed on its own; nothing to drain
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		srv.Close()
		return err
	}
	<-errCh // always http.ErrServerClosed once Shutdown has returned
	return nil
}
