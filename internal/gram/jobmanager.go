package gram

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"condorg/internal/gass"
	"condorg/internal/gsi"
	"condorg/internal/wire"
)

// JobManager is the per-job daemon of Figure 1. It owns the job's wire
// endpoint (ping/status/cancel/credential-refresh), pushes stdout/stderr to
// the client's GASS server, and relays status callbacks. Killing a
// JobManager does not kill the underlying LRM job — that separation is the
// essence of GRAM's resource-side fault tolerance.
//
// It lives as long as the job needs it and no longer: once the job is
// terminal, the client has been told so, and both output streams are fully
// acknowledged by the client's GASS server, the daemon exits on its own
// (run). A client that missed the news finds the endpoint gone and takes the
// §4.2 ladder — gatekeeper ping, gram.jm-restart — to a replacement that
// reports the same terminal state, so an early exit costs one restart and
// never a second execution.
type JobManager struct {
	site *Site
	job  *siteJob
	srv  *wire.Server

	mu        sync.Mutex
	closed    bool
	delivered bool // the client holds the job's terminal state
	cbClient  *wire.Client
	stop      chan struct{}
}

// pushRetry paces output-push retries after a failed gass.append (client
// GASS server unreachable). Nothing is polled while pushes succeed.
const pushRetry = 10 * time.Millisecond

// startJobManager creates and registers a JobManager for job.
func (s *Site) startJobManager(job *siteJob) (*JobManager, error) {
	srv, err := wire.NewServer(wire.ServerConfig{
		Name:   JobManagerService,
		Anchor: s.cfg.Anchor,
		Clock:  s.cfg.Clock,
		Faults: s.cfg.JobManagerFaults,
	})
	if err != nil {
		return nil, err
	}
	jm := &JobManager{site: s, job: job, srv: srv, stop: make(chan struct{})}
	srv.Handle("jm.ping", func(string, json.RawMessage) (any, error) { return struct{}{}, nil })
	srv.Handle("jm.status", jm.handleStatus)
	srv.Handle("jm.cancel", jm.handleCancel)
	srv.Handle("jm.refresh-credential", jm.handleRefreshCredential)
	srv.Handle("jm.update-urlfile", jm.handleUpdateURLFile)
	job.mu.Lock()
	job.jm = jm
	cb := job.callback
	job.mu.Unlock()
	if cb != "" {
		jm.cbClient = wire.Dial(cb, wire.ClientConfig{
			ServerName: CallbackService,
			Credential: nil, // callbacks ride on the client's own channel trust
			Timeout:    time.Second,
			Retries:    1,
		})
	}
	go jm.run()
	return jm, nil
}

// markDelivered records that the client holds the job's terminal state — a
// Done callback it acknowledged, or a status reply that carried it.
func (jm *JobManager) markDelivered() {
	jm.mu.Lock()
	jm.delivered = true
	jm.mu.Unlock()
	jm.job.wake()
}

// Addr returns the JobManager's contact address.
func (jm *JobManager) Addr() string { return jm.srv.Addr() }

// Close simulates the JobManager process exiting (crash or normal exit).
func (jm *JobManager) Close() {
	jm.mu.Lock()
	if jm.closed {
		jm.mu.Unlock()
		return
	}
	jm.closed = true
	close(jm.stop)
	cb := jm.cbClient
	jm.mu.Unlock()
	jm.srv.Close()
	if cb != nil {
		cb.Close()
	}
}

func (jm *JobManager) authorized(peer string) error {
	if jm.site.cfg.Anchor == nil {
		return nil
	}
	jm.job.mu.Lock()
	owner := jm.job.owner
	jm.job.mu.Unlock()
	if peer != owner {
		return fmt.Errorf("gram: job belongs to %s", owner)
	}
	return nil
}

func (jm *JobManager) handleStatus(peer string, _ json.RawMessage) (any, error) {
	if err := jm.authorized(peer); err != nil {
		return nil, err
	}
	jm.job.mu.Lock()
	st := jm.job.status
	jm.job.mu.Unlock()
	st.StdoutSent = jm.job.stdout.sentBytes()
	st.StderrSent = jm.job.stderr.sentBytes()
	if st.State.Terminal() {
		jm.markDelivered()
	}
	return st, nil
}

func (jm *JobManager) handleCancel(peer string, _ json.RawMessage) (any, error) {
	if err := jm.authorized(peer); err != nil {
		return nil, err
	}
	if err := jm.site.cancelJob(jm.job); err != nil {
		return nil, err
	}
	return struct{}{}, nil
}

type refreshCredReq struct {
	Delegated []byte `json:"delegated"`
}

func (jm *JobManager) handleRefreshCredential(peer string, body json.RawMessage) (any, error) {
	if err := jm.authorized(peer); err != nil {
		return nil, err
	}
	var req refreshCredReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	cred, err := gsi.DecodeCredential(req.Delegated)
	if err != nil {
		return nil, err
	}
	// The refreshed proxy passes the same vetting as the submit-time
	// delegation — chain verification plus site scope — so a renewed
	// credential cannot launder away the original restriction, and a proxy
	// refreshed for another site is refused with a Permanent fault.
	if err := jm.site.checkDelegated(cred); err != nil {
		return nil, err
	}
	if jm.site.cfg.Anchor != nil {
		if subject := cred.Subject(); subject != peer {
			return nil, fmt.Errorf("gram: refreshed credential subject %s != peer %s", subject, peer)
		}
	}
	jm.job.mu.Lock()
	jm.job.cred = cred
	jm.job.mu.Unlock()
	return struct{}{}, nil
}

type updateURLFileReq struct {
	Addr string `json:"addr"`
}

// handleUpdateURLFile rewrites the job's GASS URL file after the submission
// machine restarts with a new address (§4.2) and redirects the output push
// streams to the new server.
func (jm *JobManager) handleUpdateURLFile(peer string, body json.RawMessage) (any, error) {
	if err := jm.authorized(peer); err != nil {
		return nil, err
	}
	var req updateURLFileReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	jm.job.mu.Lock()
	spec := &jm.job.spec
	rewrite := func(urlStr string) string {
		u, err := gass.ParseURL(urlStr)
		if err != nil {
			return urlStr
		}
		u.Addr = req.Addr
		return u.String()
	}
	if spec.StdoutURL != "" {
		spec.StdoutURL = rewrite(spec.StdoutURL)
	}
	if spec.StderrURL != "" {
		spec.StderrURL = rewrite(spec.StderrURL)
	}
	urlFile := spec.GassURLFile
	jm.job.mu.Unlock()
	jm.site.persist(jm.job)
	if urlFile != "" {
		if err := gass.WriteURLFile(urlFile, req.Addr); err != nil {
			return nil, err
		}
	}
	jm.job.wake() // unsent output now has somewhere to go
	return struct{}{}, nil
}

// run is the daemon's main loop, woken through the job's kick channel. Each
// wake-up streams unsent output to the client's GASS URLs, resuming from the
// high-water mark after any failure — "real-time streaming of standard output
// and error" — and then exits the daemon if its work is over. A failed push
// is retried at pushRetry pace.
func (jm *JobManager) run() {
	jm.job.mu.Lock()
	cred := jm.job.cred
	jm.job.mu.Unlock()
	gc := gass.NewClient(cred, jm.site.cfg.Clock)
	defer gc.Close()
	for {
		select {
		case <-jm.stop:
			// Killed (crash injection, site shutdown). A nudge this loop
			// swallowed on its way out belongs to the replacement daemon.
			jm.job.wake()
			return
		default:
		}
		jm.job.mu.Lock()
		stdoutURL, stderrURL := jm.job.spec.StdoutURL, jm.job.spec.StderrURL
		terminal := jm.job.status.State.Terminal()
		jm.job.mu.Unlock()
		// Both streams are attempted even when the first fails.
		outDone := jm.pushStream(gc, &jm.job.stdout, stdoutURL)
		errDone := jm.pushStream(gc, &jm.job.stderr, stderrURL)
		// terminal was read before the push: the payload writes all of its
		// output before the LRM reports it finished, so a drained buffer
		// seen after a terminal state is the whole output.
		if terminal && outDone && errDone && jm.exit() {
			return
		}
		var retry <-chan time.Time
		if !outDone || !errDone {
			retry = time.After(pushRetry)
		}
		select {
		case <-jm.stop:
		case <-jm.job.kick:
		case <-retry:
		}
	}
}

// pushStream sends buf's unsent tail to urlStr and reports whether the
// stream has nothing left to send (a job without an output URL never has).
func (jm *JobManager) pushStream(gc *gass.Client, buf *outBuffer, urlStr string) bool {
	if urlStr == "" {
		return true
	}
	data, _ := buf.unsent()
	if len(data) == 0 {
		return true
	}
	u, err := gass.ParseURL(urlStr)
	if err != nil {
		return true // nowhere to send it, now or later
	}
	if _, err := gc.Append(u, data); err != nil {
		return false // client GASS unreachable; retried from the mark
	}
	buf.markSent(int64(len(data)))
	return true
}

// exit ends the daemon once the client holds the terminal state (the caller
// has checked that the job is terminal and its output drained). Requests
// being served finish first, so the jm.status reply that delivered the
// terminal state is not torn by the exit it triggered. It reports false when
// the client has not been told yet, or when the daemon was already closed.
func (jm *JobManager) exit() bool {
	jm.mu.Lock()
	if jm.closed || !jm.delivered {
		jm.mu.Unlock()
		return false
	}
	jm.closed = true
	cb := jm.cbClient
	jm.mu.Unlock()
	jm.job.mu.Lock()
	if jm.job.jm == jm {
		jm.job.jm = nil
	}
	jm.job.mu.Unlock()
	jm.srv.Shutdown()
	if cb != nil {
		cb.Close()
	}
	return true
}

// sendCallback delivers a status change to the client's callback endpoint.
// Best effort: the GridManager also polls.
func (jm *JobManager) sendCallback(st StatusInfo) {
	jm.mu.Lock()
	cb := jm.cbClient
	closed := jm.closed
	jm.mu.Unlock()
	if cb == nil || closed {
		return
	}
	st.JobManagerAddr = jm.Addr() // identify the incarnation for the receiver
	go func() {
		// A state the job has already left is not worth a round trip: the
		// watcher reports every LRM transition the instant it happens, and
		// a short job's Pending and Active are history before they could
		// leave the machine. The terminal state always goes out.
		if !st.State.Terminal() {
			jm.job.mu.Lock()
			stale := jm.job.status.State != st.State
			jm.job.mu.Unlock()
			if stale {
				return
			}
		}
		// Only an acknowledged Done settles the matter: the client acts on a
		// Failed verdict (resubmit, hold, give up) from its probe, so this
		// daemon stays to answer that probe.
		if err := cb.Call("gram.callback", st, nil); err == nil && st.State == StateDone {
			jm.markDelivered()
		}
	}()
}

// CallbackService is the wire service name for client callback endpoints.
const CallbackService = "gram-callback"
