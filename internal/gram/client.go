package gram

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"condorg/internal/faultclass"
	"condorg/internal/gsi"
	"condorg/internal/obs"
	"condorg/internal/wire"
)

// Client is the submit-side GRAM library used by the GridManager. One
// client serves one user credential; connections to Gatekeepers and
// JobManagers are cached per address. Every network operation passes
// through a per-endpoint circuit breaker, so a dead site fast-fails
// instead of making each caller wait out the full timeout ladder.
type Client struct {
	clock gsi.Clock

	mu     sync.Mutex
	cred   *gsi.Credential
	health *faultclass.BreakerSet
	gkConn map[string]*wire.Client
	jmConn map[string]*wire.Client
	obs    *obs.Registry
	// timeouts are shortened by tests.
	timeout time.Duration
	retries int
	// codec/noSession select wire protocol v2 features for new
	// connections (SetWire).
	codec     string
	noSession bool
}

// NewClient creates a GRAM client authenticating as cred.
func NewClient(cred *gsi.Credential, clock gsi.Clock) *Client {
	if clock == nil {
		clock = gsi.WallClock
	}
	return &Client{
		clock:   clock,
		cred:    cred,
		health:  faultclass.NewBreakerSet(faultclass.BreakerConfig{}),
		gkConn:  make(map[string]*wire.Client),
		jmConn:  make(map[string]*wire.Client),
		timeout: 2 * time.Second,
		retries: 3,
	}
}

// SetWire selects the frame codec (wire.CodecJSON or wire.CodecBinary)
// and whether session auth is disabled for future connections. Existing
// connections are dropped so the change takes effect immediately.
func (c *Client) SetWire(codec string, disableSession bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.codec = codec
	c.noSession = disableSession
	for _, wc := range c.gkConn {
		wc.Close()
	}
	for _, wc := range c.jmConn {
		wc.Close()
	}
	c.gkConn = make(map[string]*wire.Client)
	c.jmConn = make(map[string]*wire.Client)
}

// SetBreakerConfig replaces the per-endpoint circuit breakers (dropping
// any accumulated failure state).
func (c *Client) SetBreakerConfig(cfg faultclass.BreakerConfig) {
	c.mu.Lock()
	c.health = faultclass.NewBreakerSet(cfg)
	c.mu.Unlock()
}

// SiteHealth reports the circuit breaker state for an endpoint address
// (a gatekeeper or jobmanager).
func (c *Client) SiteHealth(addr string) faultclass.BreakerState {
	c.mu.Lock()
	h := c.health
	c.mu.Unlock()
	return h.State(addr)
}

// SiteReady reports whether a call to addr would currently be admitted by
// its circuit breaker: closed, or open but due for its half-open probe.
// It does not consume the probe slot, so dispatchers can poll it to
// decide when a parked site queue may attempt the probe call.
func (c *Client) SiteReady(addr string) bool {
	c.mu.Lock()
	h := c.health
	c.mu.Unlock()
	return h.Ready(addr)
}

// SetObs attaches a metrics registry: per-verb round-trip histograms
// (gram_rtt_seconds{verb=...}), error counters by fault class, and
// breaker fast-fail counters. Nil detaches.
func (c *Client) SetObs(r *obs.Registry) {
	c.mu.Lock()
	c.obs = r
	c.mu.Unlock()
}

// HealthSnapshot reports breaker state for every endpoint this client has
// dialed. Endpoints whose breaker never tripped (or closed again) appear
// as Closed, so the site list is complete, not just the sick ones.
func (c *Client) HealthSnapshot() map[string]faultclass.BreakerInfo {
	c.mu.Lock()
	h := c.health
	addrs := make([]string, 0, len(c.gkConn)+len(c.jmConn))
	for addr := range c.gkConn {
		addrs = append(addrs, addr)
	}
	for addr := range c.jmConn {
		addrs = append(addrs, addr)
	}
	c.mu.Unlock()
	out := h.Snapshot()
	for _, addr := range addrs {
		if _, ok := out[addr]; !ok {
			out[addr] = faultclass.BreakerInfo{State: faultclass.Closed}
		}
	}
	return out
}

// guard runs op under addr's circuit breaker. An open breaker
// fast-fails with a Transient error before any network I/O; transport
// failures (not remote application errors — those prove the endpoint
// alive) count against the breaker. verb labels the metrics this call
// feeds (gram_rtt_seconds, gram_errors_total, gram_breaker_open_total).
func (c *Client) guard(addr, verb string, op func() error) error {
	c.mu.Lock()
	h := c.health
	reg := c.obs
	c.mu.Unlock()
	if !h.Allow(addr) {
		reg.Counter(obs.Key("gram_breaker_open_total", "verb", verb)).Inc()
		return faultclass.New(faultclass.Transient,
			fmt.Errorf("gram: %s: %w", addr, faultclass.ErrBreakerOpen))
	}
	start := time.Now()
	err := op()
	if reg != nil {
		reg.Histogram(obs.Key("gram_rtt_seconds", "verb", verb)).Observe(time.Since(start).Seconds())
		if err != nil {
			reg.Counter(obs.Key("gram_errors_total",
				"verb", verb, "class", faultclass.ClassOf(err).String())).Inc()
		}
	}
	if err != nil && !wire.IsRemote(err) {
		h.Failure(addr)
	} else {
		h.Success(addr)
	}
	return err
}

// SetTimeouts adjusts per-attempt timeout and retry count (tests shorten
// them so partition detection is fast).
func (c *Client) SetTimeouts(timeout time.Duration, retries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timeout = timeout
	c.retries = retries
	for _, wc := range c.gkConn {
		wc.Close()
	}
	for _, wc := range c.jmConn {
		wc.Close()
	}
	c.gkConn = make(map[string]*wire.Client)
	c.jmConn = make(map[string]*wire.Client)
}

// SetCredential swaps in a refreshed proxy.
func (c *Client) SetCredential(cred *gsi.Credential) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cred = cred
	for _, wc := range c.gkConn {
		wc.SetCredential(cred)
	}
	for _, wc := range c.jmConn {
		wc.SetCredential(cred)
	}
}

// Credential returns the current proxy.
func (c *Client) Credential() *gsi.Credential {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cred
}

// conn returns (dialing if necessary) the cached connection for addr in
// the selected pool. The pool is chosen under the lock so Close (which
// replaces the maps) cannot race concurrent callers.
func (c *Client) conn(jm bool, addr, service string) *wire.Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.gkConn
	if jm {
		m = c.jmConn
	}
	if wc, ok := m[addr]; ok {
		return wc
	}
	wc := wire.Dial(addr, wire.ClientConfig{
		ServerName:     service,
		Credential:     c.cred,
		Clock:          c.clock,
		Timeout:        c.timeout,
		Retries:        c.retries,
		Codec:          c.codec,
		DisableSession: c.noSession,
	})
	m[addr] = wc
	return wc
}

func (c *Client) gatekeeper(addr string) *wire.Client {
	return c.conn(false, addr, GatekeeperService)
}

func (c *Client) jobmanager(addr string) *wire.Client {
	return c.conn(true, addr, JobManagerService)
}

// Close releases all connections.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, wc := range c.gkConn {
		wc.Close()
	}
	for _, wc := range c.jmConn {
		wc.Close()
	}
	c.gkConn = make(map[string]*wire.Client)
	c.jmConn = make(map[string]*wire.Client)
}

// NewSubmissionID mints the unique identifier the GridManager journals
// before phase one, making resubmission after any crash idempotent.
func NewSubmissionID() string {
	b := make([]byte, 10)
	rand.Read(b)
	return "sub-" + hex.EncodeToString(b)
}

// SubmitOptions carries the optional parts of a submission.
type SubmitOptions struct {
	// SubmissionID, when non-empty, deduplicates resubmissions. Journal
	// it before calling Submit.
	SubmissionID string
	// Callback is the client's callback endpoint address.
	Callback string
	// Delegate forwards a fresh proxy of this lifetime to the site.
	Delegate time.Duration
	// Capability accompanies the request for sites that authorize by
	// capability rather than gridmap (§3.2 extension).
	Capability *gsi.Capability
}

// delegateFor mints the site-scoped delegation payload for a request bound
// to gkAddr: a fresh proxy whose chain names the gatekeeper it is for, so
// the receiving site can exercise it locally but cannot replay it against
// any other site (restricted delegation, §4.3 / mediated-delegation model).
func (c *Client) delegateFor(gkAddr string, lifetime time.Duration) ([]byte, error) {
	c.mu.Lock()
	cred := c.cred
	c.mu.Unlock()
	if cred == nil {
		return nil, fmt.Errorf("gram: delegation requested without a credential")
	}
	proxy, err := gsi.DelegateScoped(cred, gkAddr, c.clock(), lifetime)
	if err != nil {
		return nil, fmt.Errorf("gram: delegate: %w", err)
	}
	return gsi.EncodeCredential(proxy)
}

// Submit runs phase one of the two-phase commit: the request travels with
// the submission ID, and a lost response is recovered by retrying the same
// wire sequence number. On success the job exists at the site in
// StateUnsubmitted, awaiting Commit.
func (c *Client) Submit(gkAddr string, spec JobSpec, opts SubmitOptions) (JobContact, error) {
	req := submitReq{SubmissionID: opts.SubmissionID, Spec: spec, Callback: opts.Callback}
	if opts.Capability != nil {
		data, err := gsi.EncodeCapability(opts.Capability)
		if err != nil {
			return JobContact{}, err
		}
		req.Capability = data
	}
	if opts.Delegate > 0 {
		data, err := c.delegateFor(gkAddr, opts.Delegate)
		if err != nil {
			return JobContact{}, err
		}
		req.Delegated = data
	}
	var resp submitResp
	if err := c.guard(gkAddr, "submit", func() error {
		return c.gatekeeper(gkAddr).Call("gram.submit", req, &resp)
	}); err != nil {
		return JobContact{}, err
	}
	return JobContact{
		JobManagerAddr: resp.JobManagerAddr,
		GatekeeperAddr: gkAddr,
		JobID:          resp.JobID,
	}, nil
}

// Commit runs phase two: "job execution can commence". Idempotent.
func (c *Client) Commit(contact JobContact) error {
	return c.guard(contact.GatekeeperAddr, "commit", func() error {
		return c.gatekeeper(contact.GatekeeperAddr).Call("gram.commit", commitReq{JobID: contact.JobID}, nil)
	})
}

// Status queries the JobManager for the job's current state.
func (c *Client) Status(contact JobContact) (StatusInfo, error) {
	var st StatusInfo
	err := c.guard(contact.JobManagerAddr, "status", func() error {
		return c.jobmanager(contact.JobManagerAddr).Call("jm.status", struct{}{}, &st)
	})
	return st, err
}

// Cancel asks the JobManager to kill the job.
func (c *Client) Cancel(contact JobContact) error {
	return c.guard(contact.JobManagerAddr, "cancel", func() error {
		return c.jobmanager(contact.JobManagerAddr).Call("jm.cancel", struct{}{}, nil)
	})
}

// PingJobManager probes the per-job daemon (single attempt, no retries):
// the GridManager's liveness check.
func (c *Client) PingJobManager(contact JobContact) error {
	return c.guard(contact.JobManagerAddr, "ping-jm", func() error {
		return c.jobmanager(contact.JobManagerAddr).Ping("jm.ping")
	})
}

// PingGatekeeper probes the site's interface machine.
func (c *Client) PingGatekeeper(addr string) error {
	return c.guard(addr, "ping-gk", func() error {
		return c.gatekeeper(addr).Ping("gram.ping")
	})
}

// StageCheck asks a site whether the executable with this content hash is
// already cached, and if not, from which offset an interrupted pre-stage
// should resume. Runs under the gatekeeper's circuit breaker like every
// other verb, so staging work fast-fails against a dead site.
func (c *Client) StageCheck(gkAddr, hash string) (present bool, offset int64, err error) {
	var resp stageCheckResp
	err = c.guard(gkAddr, "stage-check", func() error {
		return c.gatekeeper(gkAddr).Call("gram.stage-check", stageReq{Hash: hash}, &resp)
	})
	return resp.Present, resp.Offset, err
}

// StageChunk pushes one chunk of executable bytes at offset. The returned
// ack is the contiguous prefix the site has on stable storage — the resume
// point a client journals.
func (c *Client) StageChunk(gkAddr, hash string, offset int64, data []byte) (acked int64, err error) {
	var resp stageChunkResp
	err = c.guard(gkAddr, "stage-chunk", func() error {
		_, err := c.gatekeeper(gkAddr).CallBlob("gram.stage-chunk", stageReq{Hash: hash, Offset: offset}, data, &resp)
		return err
	})
	return resp.Acked, err
}

// StageCommit asks the site to verify the assembled bytes (size + sha256)
// and promote them into its executable cache. Idempotent.
func (c *Client) StageCommit(gkAddr, hash string, total int64) error {
	return c.guard(gkAddr, "stage-commit", func() error {
		return c.gatekeeper(gkAddr).Call("gram.stage-commit", stageReq{Hash: hash, Total: total}, nil)
	})
}

// RestartJobManager asks the Gatekeeper to start a replacement JobManager
// for a job whose daemon died. The returned contact has the new address.
func (c *Client) RestartJobManager(contact JobContact) (JobContact, error) {
	var resp jmRestartResp
	err := c.guard(contact.GatekeeperAddr, "jm-restart", func() error {
		return c.gatekeeper(contact.GatekeeperAddr).Call("gram.jm-restart", jmRestartReq{JobID: contact.JobID}, &resp)
	})
	if err != nil {
		return contact, err
	}
	if contact.JobManagerAddr != resp.JobManagerAddr {
		c.ForgetJobManager(contact.JobManagerAddr)
	}
	contact.JobManagerAddr = resp.JobManagerAddr
	return contact, nil
}

// ForgetJobManager drops the cached connection and the breaker memory of a
// JobManager that is dead or whose job is over. JobManagers come and go with
// their jobs, so a client that outlives many jobs must not keep an entry per
// job ever run.
func (c *Client) ForgetJobManager(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if wc, ok := c.jmConn[addr]; ok {
		wc.Close()
		delete(c.jmConn, addr)
	}
	c.health.Success(addr) // Success is how a BreakerSet drops an entry
}

// RefreshCredential re-forwards a fresh proxy to the job's site (§4.3).
// The forwarded proxy is scoped to the job's gatekeeper like the original
// submit-time delegation, and the call is in-band: the running JobManager
// swaps credentials without the job being held or interrupted.
func (c *Client) RefreshCredential(contact JobContact, lifetime time.Duration) error {
	data, err := c.delegateFor(contact.GatekeeperAddr, lifetime)
	if err != nil {
		return err
	}
	return c.guard(contact.JobManagerAddr, "refresh-credential", func() error {
		return c.jobmanager(contact.JobManagerAddr).Call("jm.refresh-credential", refreshCredReq{Delegated: data}, nil)
	})
}

// UpdateURLFile tells the JobManager the client's GASS server moved.
func (c *Client) UpdateURLFile(contact JobContact, newAddr string) error {
	return c.guard(contact.JobManagerAddr, "update-urlfile", func() error {
		return c.jobmanager(contact.JobManagerAddr).Call("jm.update-urlfile", updateURLFileReq{Addr: newAddr}, nil)
	})
}
