package gram

import (
	"sync"
	"time"

	"condorg/internal/gass"
	"condorg/internal/wire"
)

// JobManager is the per-job daemon of Figure 1: a goroutine on the
// interface machine that pushes stdout/stderr to the client's GASS server
// and relays status callbacks. It is not a network endpoint. Status, commit,
// cancel and credential refresh reach the job through the gatekeeper's batch
// verbs instead, which answer whether or not the daemon runs. Killing a
// JobManager does not kill the underlying LRM job — that separation is the
// essence of GRAM's resource-side fault tolerance.
//
// It lives as long as the job needs it and no longer: once the job is
// terminal, the client has been told so, and both output streams are fully
// acknowledged by the client's GASS server, the daemon exits on its own
// (run). A client that missed the news still learns the terminal state from
// the gatekeeper's jm.batch-status, which answers for the job whether or not
// its daemon runs, so an early exit never costs a second execution.
type JobManager struct {
	site *Site
	job  *siteJob

	mu        sync.Mutex
	closed    bool
	delivered bool // the client holds the job's terminal state
	cbClient  *wire.Client
	stop      chan struct{}
}

// pushRetry paces output-push retries after a failed gass.append (client
// GASS server unreachable). Nothing is polled while pushes succeed.
const pushRetry = 10 * time.Millisecond

// startJobManager creates, registers and starts a JobManager for job.
func (s *Site) startJobManager(job *siteJob) {
	jm := &JobManager{site: s, job: job, stop: make(chan struct{})}
	// Dialled under the job lock that publishes the daemon, so a concurrent
	// re-point (Site.repoint) either sees this daemon or hands it the new
	// address.
	job.mu.Lock()
	jm.cbClient = dialCallback(job.callback)
	job.jm = jm
	job.mu.Unlock()
	go jm.run()
}

// dialCallback returns a client for the caller's callback endpoint, or nil
// when it gave none. Callbacks ride on the client's own channel trust.
func dialCallback(addr string) *wire.Client {
	if addr == "" {
		return nil
	}
	return wire.Dial(addr, wire.ClientConfig{
		ServerName: CallbackService,
		Timeout:    time.Second,
		Retries:    1,
	})
}

// setCallback redirects the daemon's status callbacks to addr: the caller's
// callback endpoint moved (Site.repoint).
func (jm *JobManager) setCallback(addr string) {
	cb := dialCallback(addr)
	jm.mu.Lock()
	old := jm.cbClient
	if jm.closed {
		old = cb
	} else {
		jm.cbClient = cb
	}
	jm.mu.Unlock()
	if old != nil {
		old.Close()
	}
}

// markDelivered records that the client holds the job's terminal state — a
// Done callback it acknowledged, or a status reply that carried it.
func (jm *JobManager) markDelivered() {
	jm.mu.Lock()
	jm.delivered = true
	jm.mu.Unlock()
	jm.job.wake()
}

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
	if cb != nil {
		cb.Close()
	}
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
// has checked that the job is terminal and its output drained). It reports
// false when the client has not been told yet, or when the daemon was already
// closed.
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
	st.GatekeeperAddr = jm.site.GatekeeperAddr() // identify the incarnation for the receiver
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
