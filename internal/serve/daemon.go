package serve

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"time"

	"fadingcr/internal/obs"
)

// DaemonConfig wires a whole service instance: executor sizing plus the
// HTTP listener.
type DaemonConfig struct {
	// Addr is the TCP listen address, e.g. ":8080" or "127.0.0.1:0".
	Addr string
	// Executor sizes the worker pool, queue, and cache.
	Executor Options
	// LogWriter, when non-nil, receives NDJSON request logs.
	LogWriter io.Writer
	// Registry backs /metrics; nil selects obs.Default.
	Registry *obs.Registry
	// EnablePprof mounts /debug/pprof/.
	EnablePprof bool
}

// readHeaderTimeout bounds how long a client may take to send its request
// headers. Without it a client that opens a connection and trickles (or
// never sends) its headers holds the connection, and its goroutine,
// indefinitely. Request bodies and streamed responses are not bounded by
// it, so long jobs and NDJSON streams are unaffected.
const readHeaderTimeout = 10 * time.Second

// Daemon is a running service: executor, worker pool, and HTTP listener.
type Daemon struct {
	exec *Executor
	srv  *http.Server
	ln   net.Listener
	errc chan error
}

// StartDaemon listens on cfg.Addr and serves until Shutdown. It returns
// after the listener is bound, so Addr is immediately usable (handy with
// ":0" in tests).
func StartDaemon(cfg DaemonConfig) (*Daemon, error) {
	exec := NewExecutor(cfg.Executor)
	var sink *obs.Sink
	if cfg.LogWriter != nil {
		sink = obs.NewSink(cfg.LogWriter)
	}
	server := NewServer(exec, ServerOptions{
		Registry:    cfg.Registry,
		Log:         sink,
		EnablePprof: cfg.EnablePprof,
	})
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		// The executor's workers are already running; stop them so a
		// failed start leaks nothing. The queue is empty, so this is
		// instant.
		_ = exec.Drain(context.Background())
		return nil, err
	}
	d := &Daemon{
		exec: exec,
		srv:  &http.Server{Handler: server.Handler(), ReadHeaderTimeout: readHeaderTimeout},
		ln:   ln,
		errc: make(chan error, 1),
	}
	go func() {
		if err := d.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			d.errc <- err
		}
		close(d.errc)
	}()
	return d, nil
}

// Addr returns the bound listen address.
func (d *Daemon) Addr() net.Addr { return d.ln.Addr() }

// Executor exposes the daemon's executor (tests, stats).
func (d *Daemon) Executor() *Executor { return d.exec }

// Shutdown drains gracefully within ctx's deadline: intake stops first
// (readyz turns 503, new submissions get ErrDraining), accepted jobs run
// to completion, then the HTTP server closes. On deadline, in-flight jobs
// are cancelled and remaining connections are torn down.
func (d *Daemon) Shutdown(ctx context.Context) error {
	drainErr := d.exec.Drain(ctx)
	httpErr := d.srv.Shutdown(ctx)
	if httpErr != nil {
		// Deadline passed with connections (e.g. streams) still open.
		_ = d.srv.Close()
	}
	var serveErr error
	if err, ok := <-d.errc; ok {
		serveErr = err
	}
	return errors.Join(drainErr, httpErr, serveErr)
}
