package gram

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"condorg/internal/faultclass"
	"condorg/internal/gsi"
	"condorg/internal/obs"
	"condorg/internal/wire"
)

// Client is the submit-side GRAM library used by the GridManager. One
// client serves one user credential; every verb goes to a site's Gatekeeper
// over a connection shared through the client's Sessions. Every network
// operation passes through a per-gatekeeper circuit breaker, so a dead site
// fast-fails instead of making each caller wait out the full timeout ladder.
type Client struct {
	clock    gsi.Clock
	sessions *Sessions

	mu     sync.Mutex
	cred   *gsi.Credential
	health *faultclass.BreakerSet
	// held maps each gatekeeper this client has called to the shared
	// connection it holds there; nil after a credential switch left the
	// old one, until the next call acquires the new credential's.
	held map[string]*session
	// pins counts this client's calls in flight per connection, which
	// may outlive its hold there; only these may ride a re-key.
	pins map[*session]int
	obs  *obs.Registry
	// timeouts are shortened by tests.
	timeout time.Duration
	retries int
	// codec/noSession select wire protocol v2 features for new
	// connections (SetWire).
	codec     string
	noSession bool
}

// Sessions shares authenticated gatekeeper connections among the Clients
// made from it: one wire.Client per gatekeeper, credential and wire
// settings, held by every Client that has called that gatekeeper under that
// credential and closed once the last of them lets go and no call is still
// on it. An agent keeps one Sessions for all its GridManagers, so a manager
// that retires leaves its sessions to the managers still running under the
// same proxy; each Client keeps its own breakers and metrics.
type Sessions struct {
	clock gsi.Clock
	cache *connCache[sessionKey, *wire.Client]
}

// sessionKey names one shared gatekeeper connection.
type sessionKey struct {
	addr      string
	cred      *gsi.Credential
	timeout   time.Duration
	retries   int
	codec     string
	noSession bool
}

// session is one shared gatekeeper connection as a Client holds it.
type session = cacheEntry[sessionKey, *wire.Client]

// NewSessions creates an empty connection share whose sessions sign with
// clock's time.
func NewSessions(clock gsi.Clock) *Sessions {
	if clock == nil {
		clock = gsi.WallClock
	}
	dial := func(k sessionKey) *wire.Client {
		return wire.Dial(k.addr, wire.ClientConfig{
			ServerName:     GatekeeperService,
			Credential:     k.cred,
			Clock:          clock,
			Timeout:        k.timeout,
			Retries:        k.retries,
			Codec:          k.codec,
			DisableSession: k.noSession,
		})
	}
	return &Sessions{clock: clock, cache: newConnCache(dial, func(wc *wire.Client) { wc.Close() }, false)}
}

// NewClient creates a GRAM client authenticating as cred whose gatekeeper
// connections are shared through s. Its connections speak the binary codec
// with session auth; SetWire overrides that.
func (s *Sessions) NewClient(cred *gsi.Credential) *Client {
	return &Client{
		clock:    s.clock,
		sessions: s,
		cred:     cred,
		health:   faultclass.NewBreakerSet(faultclass.BreakerConfig{}),
		held:     make(map[string]*session),
		pins:     make(map[*session]int),
		timeout:  2 * time.Second,
		retries:  3,
		codec:    wire.CodecBinary,
	}
}

// NewClient creates a GRAM client authenticating as cred that shares its
// connections with no other client.
func NewClient(cred *gsi.Credential, clock gsi.Clock) *Client {
	return NewSessions(clock).NewClient(cred)
}

// SetWire selects the frame codec (wire.CodecJSON or wire.CodecBinary)
// and whether session auth is disabled for future connections. The client
// lets go of its connections so the change takes effect immediately.
func (c *Client) SetWire(codec string, disableSession bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.codec = codec
	c.noSession = disableSession
	c.releaseLocked()
}

// SetBreakerConfig replaces the per-endpoint circuit breakers (dropping
// any accumulated failure state).
func (c *Client) SetBreakerConfig(cfg faultclass.BreakerConfig) {
	c.mu.Lock()
	c.health = faultclass.NewBreakerSet(cfg)
	c.mu.Unlock()
}

// SiteHealth reports the circuit breaker state for a gatekeeper address.
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

// HealthSnapshot reports breaker state for every gatekeeper this client has
// dialed. Gatekeepers whose breaker never tripped (or closed again) appear
// as Closed, so the site list is complete, not just the sick ones.
func (c *Client) HealthSnapshot() map[string]faultclass.BreakerInfo {
	c.mu.Lock()
	h := c.health
	addrs := make([]string, 0, len(c.held))
	for addr := range c.held {
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
func (c *Client) guard(addr, verb string, op func(gk *wire.Client) error) error {
	c.mu.Lock()
	h := c.health
	reg := c.obs
	c.mu.Unlock()
	if !h.Allow(addr) {
		reg.Counter(obs.Key("gram_breaker_open_total", "verb", verb)).Inc()
		return faultclass.New(faultclass.Transient,
			fmt.Errorf("gram: %s: %w", addr, faultclass.ErrBreakerOpen))
	}
	sess := c.session(addr)
	defer c.unpin(sess)
	start := time.Now()
	err := op(sess.conn)
	if reg != nil {
		reg.Histogram(obs.Key("gram_rtt_seconds", "verb", verb)).Observe(time.Since(start).Seconds())
		if err != nil {
			reg.Counter(obs.Key("gram_errors_total",
				"verb", verb, "class", faultclass.ClassOf(err).String())).Inc()
		}
	}
	switch {
	case errors.Is(err, wire.ErrShortSection):
		// This side's file, not the site, failed the call: the breaker
		// hears of neither outcome.
	case err != nil && !wire.IsRemote(err):
		h.Failure(addr)
	default:
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
	c.releaseLocked()
}

// SetCredential swaps in a refreshed proxy. A connection that no other
// client holds or has a call on is re-keyed in place: it drops its
// session, and this client's calls in flight retry on a fresh one that
// presents the new proxy. Any other stays with the old proxy for the
// clients and calls still on it; the next call here takes the new
// credential's connection.
func (c *Client) SetCredential(cred *gsi.Credential) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cred = cred
	for addr, sess := range c.held {
		if sess == nil {
			continue
		}
		if c.sessions.cache.rekey(sess, c.keyLocked(addr), c.pins[sess]) {
			sess.conn.SetCredential(cred)
			continue
		}
		c.sessions.cache.release(sess)
		c.held[addr] = nil
	}
}

// Credential returns the current proxy.
func (c *Client) Credential() *gsi.Credential {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cred
}

// keyLocked names the connection this client uses for addr. c.mu held.
func (c *Client) keyLocked(addr string) sessionKey {
	return sessionKey{addr: addr, cred: c.cred, timeout: c.timeout, retries: c.retries,
		codec: c.codec, noSession: c.noSession}
}

// session returns the connection to the Gatekeeper at addr, acquiring it
// from the shared sessions on first use, pinned for one call: the caller
// unpins it when the call is over.
func (c *Client) session(addr string) *session {
	c.mu.Lock()
	defer c.mu.Unlock()
	sess := c.held[addr]
	if sess == nil {
		sess = c.sessions.cache.acquire(c.keyLocked(addr))
		c.held[addr] = sess
	}
	c.sessions.cache.pin(sess)
	c.pins[sess]++
	return sess
}

// unpin ends one call of this client's on sess. The client's own count
// drops first, so a re-key never counts a call the cache still pins as
// this client's.
func (c *Client) unpin(sess *session) {
	c.mu.Lock()
	if c.pins[sess]--; c.pins[sess] == 0 {
		delete(c.pins, sess)
	}
	c.mu.Unlock()
	c.sessions.cache.unpin(sess)
}

// Close lets go of every connection this client holds; each closes once
// no other client holds it and no call is still on it.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.releaseLocked()
}

// releaseLocked lets go of and forgets every held connection. c.mu held.
func (c *Client) releaseLocked() {
	for _, sess := range c.held {
		if sess != nil {
			c.sessions.cache.release(sess)
		}
	}
	c.held = make(map[string]*session)
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

// Submit runs phase one of the two-phase commit for one job, as a
// gram.batch-submit of one: the request travels with the submission ID, and
// a lost response is recovered by retrying the same wire sequence number. On
// success the job exists at the site in StateUnsubmitted, awaiting Commit.
func (c *Client) Submit(gkAddr string, spec JobSpec, opts SubmitOptions) (JobContact, error) {
	res, err := c.BatchSubmit(gkAddr, []BatchSubmitEntry{{Spec: spec, Opts: opts}})
	if err != nil {
		return JobContact{}, err
	}
	return res[0].Contact, res[0].Err
}

// Commit runs phase two for one job, as a gram.batch-commit of one that
// re-points nothing: "job execution can commence". Idempotent.
func (c *Client) Commit(contact JobContact) error {
	res, err := c.BatchCommit(contact.GatekeeperAddr, []string{contact.JobID}, "", "")
	if err != nil {
		return err
	}
	return res[0].Err
}

// Status reports one job's current state, as a jm.batch-status of one
// addressed to the gatekeeper, which answers whether or not the job's
// JobManager is running.
func (c *Client) Status(contact JobContact) (StatusInfo, error) {
	res, err := c.BatchStatus(contact.GatekeeperAddr, []string{contact.JobID})
	if err != nil {
		return StatusInfo{}, err
	}
	return res[0].Status, res[0].Err
}

// Cancel kills one job, as a jm.batch-cancel of one: the gatekeeper kills it
// through the site's LRM, so no JobManager needs to be alive.
func (c *Client) Cancel(contact JobContact) error {
	errs, err := c.BatchCancel(contact.GatekeeperAddr, []string{contact.JobID})
	if err != nil {
		return err
	}
	return errs[0]
}

// PingGatekeeper probes the site's interface machine.
func (c *Client) PingGatekeeper(addr string) error {
	return c.guard(addr, "ping-gk", func(gk *wire.Client) error {
		return gk.Ping("gram.ping")
	})
}

// StageCheck asks a site whether the executable with this content hash is
// already cached, and if not, from which offset an interrupted pre-stage
// should resume. Runs under the gatekeeper's circuit breaker like every
// other verb, so staging work fast-fails against a dead site.
func (c *Client) StageCheck(gkAddr, hash string) (present bool, offset int64, err error) {
	var resp stageCheckResp
	err = c.guard(gkAddr, "stage-check", func(gk *wire.Client) error {
		return gk.Call("gram.stage-check", stageReq{Hash: hash}, &resp)
	})
	return resp.Present, resp.Offset, err
}

// StageChunk pushes one chunk of executable bytes at offset. The returned
// ack is the contiguous prefix the site has on stable storage — the resume
// point a client journals. The site does not know the object's size, so a
// push through StageChunk ends with StageCommit.
func (c *Client) StageChunk(gkAddr, hash string, offset int64, data []byte) (acked int64, err error) {
	var resp stageChunkResp
	err = c.guard(gkAddr, "stage-chunk", func(gk *wire.Client) error {
		_, err := gk.CallBlob("gram.stage-chunk", stageReq{Hash: hash, Offset: offset}, data, &resp)
		return err
	})
	return resp.Acked, err
}

// StageSection pushes the chunk of an object of total bytes that sec holds,
// sent from the file as the frame goes out; sec.Off is its offset in the
// object. A reply whose ack reaches total means the site verified the
// object and cached it, so no StageCommit follows. A section the file does
// not hold fails with wire.ErrShortSection before anything is sent, and
// does not count against the site's breaker.
func (c *Client) StageSection(gkAddr, hash string, total int64, sec wire.Section) (acked int64, err error) {
	var resp stageChunkResp
	err = c.guard(gkAddr, "stage-chunk", func(gk *wire.Client) error {
		_, err := gk.CallSection("gram.stage-chunk", stageReq{Hash: hash, Offset: sec.Off, Total: total}, sec, &resp)
		return err
	})
	return resp.Acked, err
}

// StageCommit asks the site to verify the assembled bytes (size + sha256)
// and promote them into its executable cache: the end of a push whose last
// chunk did not complete the object. Idempotent.
func (c *Client) StageCommit(gkAddr, hash string, total int64) error {
	return c.guard(gkAddr, "stage-commit", func(gk *wire.Client) error {
		return gk.Call("gram.stage-commit", stageReq{Hash: hash, Total: total}, nil)
	})
}

// RestartJobManager asks the Gatekeeper to start a replacement JobManager
// for a job whose daemon died. The job's contact does not change: it names
// the Gatekeeper, not the daemon. A daemon that is still alive is left alone.
func (c *Client) RestartJobManager(contact JobContact) error {
	return c.guard(contact.GatekeeperAddr, "jm-restart", func(gk *wire.Client) error {
		return gk.Call("gram.jm-restart", jmRestartReq{JobID: contact.JobID}, nil)
	})
}
