package condorg

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"condorg/internal/faultclass"
	"condorg/internal/gram"
	"condorg/internal/obs"
)

// Control protocol v1: every command travels through one wire method
// ("ctl.v1") inside a versioned envelope, and every application failure
// comes back as a *CtlError carrying a stable machine code plus the
// faultclass taxonomy — so a CLI or script can decide to retry
// (Transient), resubmit elsewhere (SiteLost), or give up (Permanent)
// without parsing error prose.
//
// Tenancy: on an authenticated endpoint (ControlConfig.Anchor set) the
// owner of every op is the wire session's authenticated subject mapped
// through ControlConfig.OwnerOf — request bodies never confer identity.
// Every op is owner-scoped by construction; job lookups outside the
// caller's scope answer no-such-job (never confirming the ID exists),
// and agent-wide ops are reserved for ControlConfig.Admins.

// CtlVersion is the control envelope version this build speaks.
const CtlVersion = 1

// CtlRequest is the v1 request envelope.
type CtlRequest struct {
	Ver  int             `json:"ver"`
	Op   string          `json:"op"`
	Body json.RawMessage `json:"body,omitempty"`
}

// CtlResponse is the v1 response envelope. Exactly one of Err and Body
// is meaningful: a nil Err means the op succeeded and Body holds its
// result.
type CtlResponse struct {
	Err  *CtlError       `json:"err,omitempty"`
	Body json.RawMessage `json:"body,omitempty"`
}

// Stable machine codes carried by CtlError. These are API: they never
// change meaning across releases, so exit-code and retry policy can key
// off them.
const (
	CtlCodeBadRequest         = "bad-request"         // malformed or invalid request body
	CtlCodeNoSuchJob          = "no-such-job"         // unknown job ID (or outside the caller's owner scope)
	CtlCodeBadState           = "bad-state"           // op not valid in the job's current state
	CtlCodeSubmitFailed       = "submit-failed"       // the agent rejected the submission
	CtlCodeUnsupportedVersion = "unsupported-version" // envelope Ver not spoken by this server
	CtlCodeUnknownOp          = "unknown-op"          // envelope Op not known to this server
	CtlCodeInternal           = "internal"            // anything else
	CtlCodeQuotaExceeded      = "quota-exceeded"      // a per-owner quota rejected the submit
	CtlCodeRateLimited        = "rate-limited"        // the per-owner token bucket rejected the submit
	CtlCodeOwnerMismatch      = "owner-mismatch"      // body Owner contradicts the authenticated session owner
	CtlCodeForbidden          = "forbidden"           // op reserved for admins on this endpoint
)

// CtlError is the typed control-plane error: a stable Code for machine
// dispatch, human prose in Msg, and the fault class so clients can
// branch Transient vs Permanent through faultclass.ClassOf.
type CtlError struct {
	Code  string           `json:"code"`
	Msg   string           `json:"msg"`
	Class faultclass.Class `json:"class"`
}

// Error implements error.
func (e *CtlError) Error() string { return e.Msg }

// FaultClass exposes Class to faultclass.ClassOf.
func (e *CtlError) FaultClass() faultclass.Class { return e.Class }

// ctlBadRequest builds the validation-failure error (always Permanent:
// resending the same request cannot succeed).
func ctlBadRequest(format string, args ...any) *CtlError {
	return &CtlError{Code: CtlCodeBadRequest, Msg: fmt.Sprintf(format, args...), Class: faultclass.Permanent}
}

// ctlNoSuchJob is the uniform answer for an unknown job ID and for a job
// outside the caller's owner scope — deliberately indistinguishable, so
// a tenant cannot probe which IDs exist.
func ctlNoSuchJob(id string) *CtlError {
	return &CtlError{
		Code:  CtlCodeNoSuchJob,
		Msg:   fmt.Sprintf("condorg: no such job %s", id),
		Class: faultclass.Permanent,
	}
}

// ctlForbidden rejects an agent-wide op from a non-admin session.
func ctlForbidden(owner, op string) *CtlError {
	return &CtlError{
		Code:  CtlCodeForbidden,
		Msg:   fmt.Sprintf("condorg: op %q requires admin (owner %q is not)", op, owner),
		Class: faultclass.Permanent,
	}
}

// ctlErrorFrom maps an agent error onto the typed taxonomy. Typed
// errors pass through; known sentinels get their stable codes; anything
// else keeps whatever fault class its chain carries.
func ctlErrorFrom(err error) *CtlError {
	var ce *CtlError
	if errors.As(err, &ce) {
		return ce
	}
	switch {
	case errors.Is(err, ErrNoSuchJob):
		return &CtlError{Code: CtlCodeNoSuchJob, Msg: err.Error(), Class: faultclass.Permanent}
	case errors.Is(err, ErrBadJobState):
		return &CtlError{Code: CtlCodeBadState, Msg: err.Error(), Class: faultclass.Permanent}
	case errors.Is(err, ErrAgentClosed):
		return &CtlError{Code: CtlCodeInternal, Msg: err.Error(), Class: faultclass.Transient}
	case errors.Is(err, ErrQuotaExceeded):
		return &CtlError{Code: CtlCodeQuotaExceeded, Msg: err.Error(), Class: faultclass.Permanent}
	case errors.Is(err, ErrRateLimited):
		return &CtlError{Code: CtlCodeRateLimited, Msg: err.Error(), Class: faultclass.Permanent}
	}
	return &CtlError{Code: CtlCodeInternal, Msg: err.Error(), Class: faultclass.ClassOf(err)}
}

// CtlQueueReq filters and paginates the queue listing. Zero values mean
// "no constraint"; After is the opaque cursor returned by the previous
// page. On authenticated endpoints the listing is always scoped to the
// session owner (admins may set Owner, or leave it empty for all).
type CtlQueueReq struct {
	Owner  string     `json:"owner,omitempty"`
	States []JobState `json:"states,omitempty"`
	Limit  int        `json:"limit,omitempty"`
	After  string     `json:"after,omitempty"`
}

// CtlQueueResp is one page of jobs; a non-empty Next is the opaque
// cursor for the following page.
type CtlQueueResp struct {
	Jobs []JobInfo `json:"jobs"`
	Next string    `json:"next,omitempty"`
}

// ctlCursorPrefix versions the opaque queue cursor. The payload after
// the prefix is an implementation detail (today: base64url of the last
// job ID of the page) — clients must treat the whole cursor as opaque.
const ctlCursorPrefix = "c1."

// encodeCursor wraps a position in the versioned opaque format.
func encodeCursor(id string) string {
	if id == "" {
		return ""
	}
	return ctlCursorPrefix + base64.RawURLEncoding.EncodeToString([]byte(id))
}

// decodeCursor unwraps a cursor minted by encodeCursor.
func decodeCursor(s string) (string, error) {
	if s == "" {
		return "", nil
	}
	rest, ok := strings.CutPrefix(s, ctlCursorPrefix)
	if !ok {
		return "", fmt.Errorf("condorg: bad queue cursor: no %q version prefix", ctlCursorPrefix)
	}
	raw, err := base64.RawURLEncoding.DecodeString(rest)
	if err != nil {
		return "", fmt.Errorf("condorg: bad queue cursor: %v", err)
	}
	return string(raw), nil
}

// CtlTraceResp is a job's lifecycle timeline.
type CtlTraceResp struct {
	ID       string       `json:"id"`
	Timeline obs.Timeline `json:"timeline"`
}

// CtlMetricsResp is a point-in-time dump of the agent's metric registry.
type CtlMetricsResp struct {
	Metrics []obs.Metric `json:"metrics"`
}

// CtlSiteHealth is one owner×site row of the agent's pipeline/breaker
// view: circuit-breaker state plus the site pipeline's queue depth and
// in-flight task count.
type CtlSiteHealth struct {
	Owner    string `json:"owner"`
	Site     string `json:"site"`
	Breaker  string `json:"breaker"`
	Fails    int    `json:"fails,omitempty"`
	Queued   int    `json:"queued"`
	InFlight int    `json:"in_flight"`
	// StageHits and StageMisses count the site's executable-cache
	// outcomes as seen by this owner's staging tasks.
	StageHits   int `json:"stage_hits,omitempty"`
	StageMisses int `json:"stage_misses,omitempty"`
}

// CtlHAStatus sums the primary's replication state over the queue's open
// partitions: ChainSeq counts records journaled (chain heads summed),
// FollowerAcked those the standby has acknowledged; SyncArmed says the
// synchronous-replication wait is armed on every one of them.
type CtlHAStatus struct {
	Enabled       bool   `json:"enabled"`
	ChainSeq      uint64 `json:"chain_seq"`
	FollowerAcked uint64 `json:"follower_acked"`
	SyncArmed     bool   `json:"sync_armed"`
}

// CtlHealthResp is the per-site health listing, plus the agent's HA
// replication status when hot-standby support is enabled.
type CtlHealthResp struct {
	Sites []CtlSiteHealth `json:"sites"`
	HA    *CtlHAStatus    `json:"ha,omitempty"`
}

// CtlPoolPilot is one glidein pilot row of the "pool" view.
type CtlPoolPilot struct {
	Slot       string `json:"slot"`
	HostSite   string `json:"host_site"`
	Gatekeeper string `json:"gatekeeper,omitempty"`
	ActiveJobs int64  `json:"active_jobs"`
	State      string `json:"state"` // pending | up | retiring
}

// CtlPoolResp is the elastic glidein pool's state: the autoscaler's
// current target, the demand it derived it from, and every tracked
// pilot. Enabled=false means the agent runs without a provisioner.
type CtlPoolResp struct {
	Enabled   bool           `json:"enabled"`
	Target    int            `json:"target"`
	Demand    int            `json:"demand"`
	Submitted int64          `json:"submitted_total"`
	Retired   int64          `json:"retired_total"`
	Pilots    []CtlPoolPilot `json:"pilots,omitempty"`
}

// ownerFor resolves the wire peer into the op owner. Open mode has no
// peer and yields "" — the trusted single-tenant posture. Authenticated
// mode maps the subject through OwnerOf (identity when nil); an unmapped
// subject is rejected.
func (c *ControlServer) ownerFor(peer string) (string, *CtlError) {
	if peer == "" {
		return "", nil
	}
	owner := peer
	if c.cfg.OwnerOf != nil {
		owner = c.cfg.OwnerOf(peer)
	}
	if owner == "" {
		return "", &CtlError{
			Code:  CtlCodeForbidden,
			Msg:   fmt.Sprintf("condorg: subject %q is not mapped to an owner", peer),
			Class: faultclass.Permanent,
		}
	}
	return owner, nil
}

// isAdmin reports whether owner may run agent-wide ops. Open mode ("")
// is implicitly admin.
func (c *ControlServer) isAdmin(owner string) bool {
	return owner == "" || c.cfg.Admins[owner]
}

// authorizeJob scopes a per-job op: admins and open mode see every job;
// a tenant sees only its own, and any other ID — present or not —
// answers no-such-job.
func (c *ControlServer) authorizeJob(owner, id string) *CtlError {
	if c.isAdmin(owner) {
		return nil
	}
	rec, ok := c.agent.job(id)
	if !ok || rec.Owner != owner {
		return ctlNoSuchJob(id)
	}
	return nil
}

// handleV1 is the single wire handler behind every v1 op. Application
// failures ride the envelope as *CtlError — the wire-level error path is
// reserved for transport and envelope problems.
func (c *ControlServer) handleV1(peer string, body json.RawMessage) (any, error) {
	// Size-gate the envelope before decoding it: when a payload cap is
	// configured, no legitimate request body comes anywhere near twice
	// the cap (base64 inflates stdin 4/3), so an oversized frame is
	// rejected for the cost of one length check — JSON-scanning a
	// multi-megabyte body just to refuse it would hand a hostile owner
	// a CPU amplifier.
	if cap := c.agent.cfg.Tenancy.MaxPayloadBytes; cap > 0 && len(body) > 2*cap+4096 {
		c.agent.obs.Counter("ctl_oversized_rejected_total").Inc()
		return CtlResponse{Err: &CtlError{
			Code:  CtlCodeQuotaExceeded,
			Msg:   fmt.Sprintf("condorg: %v: request body %d bytes exceeds the %d-byte payload cap", ErrQuotaExceeded, len(body), cap),
			Class: faultclass.Permanent,
		}}, nil
	}
	var req CtlRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return CtlResponse{Err: ctlBadRequest("condorg: bad control envelope: %v", err)}, nil
	}
	if req.Ver != CtlVersion {
		return CtlResponse{Err: &CtlError{
			Code:  CtlCodeUnsupportedVersion,
			Msg:   fmt.Sprintf("condorg: control version %d not supported (server speaks %d)", req.Ver, CtlVersion),
			Class: faultclass.Permanent,
		}}, nil
	}
	op, ok := c.ops[req.Op]
	if !ok {
		return CtlResponse{Err: &CtlError{
			Code:  CtlCodeUnknownOp,
			Msg:   fmt.Sprintf("condorg: unknown control op %q", req.Op),
			Class: faultclass.Permanent,
		}}, nil
	}
	owner, cerr := c.ownerFor(peer)
	if cerr != nil {
		return CtlResponse{Err: cerr}, nil
	}
	result, err := op(owner, req.Body)
	if err != nil {
		return CtlResponse{Err: ctlErrorFrom(err)}, nil
	}
	raw, err := json.Marshal(result)
	if err != nil {
		return CtlResponse{Err: &CtlError{
			Code:  CtlCodeInternal,
			Msg:   fmt.Sprintf("condorg: encode %s result: %v", req.Op, err),
			Class: faultclass.Permanent,
		}}, nil
	}
	return CtlResponse{Body: raw}, nil
}

// ctlOp is one typed control operation: session owner ("" in open mode)
// and body in, result out.
type ctlOp func(owner string, body json.RawMessage) (any, error)

// registerOps builds the v1 dispatch table.
func (c *ControlServer) registerOps() {
	c.ops = map[string]ctlOp{
		"submit":  c.opSubmit,
		"q":       c.opQueue,
		"status":  c.opStatus,
		"rm":      c.opRemove,
		"hold":    c.opHold,
		"release": c.opRelease,
		"log":     c.opLog,
		"stdout":  c.opStdout,
		"wait":    c.opWait,
		"trace":   c.opTrace,
		"metrics": c.opMetrics,
		"health":  c.opHealth,
		"pool":    c.opPool,
		// Journal replication (see hastream.go): standby bootstrap + tail.
		"journal.snapshot": c.opJournalSnapshot,
		"journal.stream":   c.opJournalStream,
	}
}

// effectiveOwner reconciles the session owner with a request-body Owner
// field: open mode trusts the body; authenticated mode uses the session
// and rejects a contradicting body with CtlCodeOwnerMismatch.
func effectiveOwner(session, asserted string) (string, *CtlError) {
	if session == "" {
		return asserted, nil
	}
	if asserted != "" && asserted != session {
		return "", &CtlError{
			Code:  CtlCodeOwnerMismatch,
			Msg:   fmt.Sprintf("condorg: request owner %q contradicts session owner %q", asserted, session),
			Class: faultclass.Permanent,
		}
	}
	return session, nil
}

func (c *ControlServer) opSubmit(owner string, body json.RawMessage) (any, error) {
	var req CtlSubmit
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, ctlBadRequest("condorg: bad submit body: %v", err)
	}
	if req.Program == "" {
		return nil, ctlBadRequest("condorg: submit needs a program name")
	}
	eff, cerr := effectiveOwner(owner, req.Owner)
	if cerr != nil {
		return nil, cerr
	}
	id, err := c.agent.Submit(SubmitRequest{
		Owner:      eff,
		Executable: gram.Program(req.Program),
		Args:       req.Args,
		Stdin:      req.Stdin,
		Site:       req.Site,
		Cpus:       req.Cpus,
		WallLimit:  req.WallLimit,
		Env:        req.Env,
	})
	if err != nil {
		if ce := ctlErrorFrom(err); ce.Code != CtlCodeInternal {
			return nil, ce
		}
		return nil, &CtlError{Code: CtlCodeSubmitFailed, Msg: err.Error(), Class: submitFailClass(err)}
	}
	return ctlID{ID: id}, nil
}

// submitFailClass keeps a tagged class when the submission error carries
// one and otherwise defaults to Transient: with a durable queue the
// natural reaction to a failed hand-off is to try again.
func submitFailClass(err error) faultclass.Class {
	if cl := faultclass.ClassOf(err); cl != faultclass.Unknown {
		return cl
	}
	if errors.Is(err, ErrAgentClosed) {
		return faultclass.Transient
	}
	return faultclass.Permanent
}

func (c *ControlServer) opQueue(owner string, body json.RawMessage) (any, error) {
	var req CtlQueueReq
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, ctlBadRequest("condorg: bad queue body: %v", err)
		}
	}
	filterOwner := req.Owner
	if owner != "" && !c.isAdmin(owner) {
		// A tenant's listing is always scoped to itself, whatever the
		// body says; a contradicting Owner is a typed error.
		eff, cerr := effectiveOwner(owner, req.Owner)
		if cerr != nil {
			return nil, cerr
		}
		filterOwner = eff
	}
	after, err := decodeCursor(req.After)
	if err != nil {
		return nil, ctlBadRequest("%v", err)
	}
	jobs, next := c.agent.JobsFiltered(JobFilter{
		Owner:  filterOwner,
		States: req.States,
		Limit:  req.Limit,
		After:  after,
	})
	return CtlQueueResp{Jobs: jobs, Next: encodeCursor(next)}, nil
}

func (c *ControlServer) opStatus(owner string, body json.RawMessage) (any, error) {
	var req ctlID
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, ctlBadRequest("condorg: bad status body: %v", err)
	}
	if cerr := c.authorizeJob(owner, req.ID); cerr != nil {
		return nil, cerr
	}
	return c.agent.Status(req.ID)
}

func (c *ControlServer) opRemove(owner string, body json.RawMessage) (any, error) {
	var req ctlID
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, ctlBadRequest("condorg: bad rm body: %v", err)
	}
	if cerr := c.authorizeJob(owner, req.ID); cerr != nil {
		return nil, cerr
	}
	return struct{}{}, c.agent.Remove(req.ID)
}

func (c *ControlServer) opHold(owner string, body json.RawMessage) (any, error) {
	var req ctlHold
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, ctlBadRequest("condorg: bad hold body: %v", err)
	}
	if req.Reason == "" {
		req.Reason = "held by user"
	}
	if cerr := c.authorizeJob(owner, req.ID); cerr != nil {
		return nil, cerr
	}
	return struct{}{}, c.agent.Hold(req.ID, req.Reason)
}

func (c *ControlServer) opRelease(owner string, body json.RawMessage) (any, error) {
	var req ctlID
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, ctlBadRequest("condorg: bad release body: %v", err)
	}
	if cerr := c.authorizeJob(owner, req.ID); cerr != nil {
		return nil, cerr
	}
	return struct{}{}, c.agent.Release(req.ID)
}

func (c *ControlServer) opLog(owner string, body json.RawMessage) (any, error) {
	var req ctlID
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, ctlBadRequest("condorg: bad log body: %v", err)
	}
	if cerr := c.authorizeJob(owner, req.ID); cerr != nil {
		return nil, cerr
	}
	events, err := c.agent.UserLog(req.ID)
	if err != nil {
		return nil, err
	}
	return ctlLog{Events: events}, nil
}

func (c *ControlServer) opStdout(owner string, body json.RawMessage) (any, error) {
	var req ctlID
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, ctlBadRequest("condorg: bad stdout body: %v", err)
	}
	if cerr := c.authorizeJob(owner, req.ID); cerr != nil {
		return nil, cerr
	}
	data, err := c.agent.Stdout(req.ID)
	if err != nil {
		return nil, err
	}
	return ctlData{Data: data}, nil
}

func (c *ControlServer) opWait(owner string, body json.RawMessage) (any, error) {
	var req ctlWait
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, ctlBadRequest("condorg: bad wait body: %v", err)
	}
	if cerr := c.authorizeJob(owner, req.ID); cerr != nil {
		return nil, cerr
	}
	// Wait briefly server-side; the client re-calls for long waits so a
	// single RPC never outlives the wire timeout. The wait itself is
	// event-driven — it returns the moment the job turns terminal.
	ctx, cancel := context.WithTimeout(context.Background(),
		time.Duration(req.TimeoutSec)*time.Second)
	defer cancel()
	info, err := c.agent.Wait(ctx, req.ID)
	if errors.Is(err, context.DeadlineExceeded) {
		return info, nil // not terminal yet; the client decides to re-call
	}
	if err != nil {
		return nil, err
	}
	return info, nil
}

func (c *ControlServer) opTrace(owner string, body json.RawMessage) (any, error) {
	var req ctlID
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, ctlBadRequest("condorg: bad trace body: %v", err)
	}
	if cerr := c.authorizeJob(owner, req.ID); cerr != nil {
		return nil, cerr
	}
	tl, err := c.agent.Trace(req.ID)
	if err != nil {
		return nil, err
	}
	return CtlTraceResp{ID: req.ID, Timeline: tl}, nil
}

func (c *ControlServer) opMetrics(owner string, _ json.RawMessage) (any, error) {
	if !c.isAdmin(owner) {
		// The registry carries per-owner labels — cross-tenant data.
		return nil, ctlForbidden(owner, "metrics")
	}
	return CtlMetricsResp{Metrics: c.agent.MetricsSnapshot()}, nil
}

func (c *ControlServer) opHealth(owner string, _ json.RawMessage) (any, error) {
	if !c.isAdmin(owner) {
		return nil, ctlForbidden(owner, "health")
	}
	resp := CtlHealthResp{Sites: c.agent.PipelineHealth()}
	if c.agent.cfg.HA.Enabled {
		stores := c.agent.parts.Stores()
		ha := &CtlHAStatus{Enabled: true, SyncArmed: len(stores) > 0}
		for _, st := range stores {
			acked, armed := st.FollowerAckedSeq()
			ha.ChainSeq += st.ChainHead().Seq
			ha.FollowerAcked += acked
			ha.SyncArmed = ha.SyncArmed && armed
		}
		resp.HA = ha
	}
	return resp, nil
}

func (c *ControlServer) opPool(owner string, _ json.RawMessage) (any, error) {
	if !c.isAdmin(owner) {
		return nil, ctlForbidden(owner, "pool")
	}
	if c.cfg.Pool == nil {
		return CtlPoolResp{}, nil
	}
	resp := c.cfg.Pool()
	resp.Enabled = true
	return resp, nil
}

// call runs one v1 op round-trip: envelope out, envelope back, typed
// error surfaced as *CtlError (so faultclass.ClassOf works on it).
func (c *ControlClient) call(op string, req, resp any) error {
	var body json.RawMessage
	if req != nil {
		raw, err := json.Marshal(req)
		if err != nil {
			return err
		}
		body = raw
	}
	var env CtlResponse
	if err := c.wc.Call("ctl.v1", CtlRequest{Ver: CtlVersion, Op: op, Body: body}, &env); err != nil {
		return err
	}
	if env.Err != nil {
		return env.Err
	}
	if resp != nil && len(env.Body) > 0 {
		return json.Unmarshal(env.Body, resp)
	}
	return nil
}

// QueueFiltered lists one page of jobs matching the filter; next is the
// opaque cursor for the following page ("" when this page is the last).
func (c *ControlClient) QueueFiltered(req CtlQueueReq) (jobs []JobInfo, next string, err error) {
	var resp CtlQueueResp
	if err := c.call("q", req, &resp); err != nil {
		return nil, "", err
	}
	return resp.Jobs, resp.Next, nil
}

// Trace fetches the job's lifecycle timeline.
func (c *ControlClient) Trace(id string) (obs.Timeline, error) {
	var resp CtlTraceResp
	if err := c.call("trace", ctlID{ID: id}, &resp); err != nil {
		return obs.Timeline{}, err
	}
	return resp.Timeline, nil
}

// Metrics fetches a point-in-time dump of the agent's metric registry.
func (c *ControlClient) Metrics() ([]obs.Metric, error) {
	var resp CtlMetricsResp
	if err := c.call("metrics", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Metrics, nil
}

// Health fetches the per-owner, per-site breaker and pipeline view.
func (c *ControlClient) Health() ([]CtlSiteHealth, error) {
	resp, err := c.HealthFull()
	if err != nil {
		return nil, err
	}
	return resp.Sites, nil
}

// HealthFull fetches the health listing including the HA replication
// status (nil unless the agent runs with HAOptions.Enabled).
func (c *ControlClient) HealthFull() (CtlHealthResp, error) {
	var resp CtlHealthResp
	err := c.call("health", nil, &resp)
	return resp, err
}

// Pool fetches the elastic glidein pool view (Enabled=false when the
// agent runs without a provisioner).
func (c *ControlClient) Pool() (CtlPoolResp, error) {
	var resp CtlPoolResp
	err := c.call("pool", nil, &resp)
	return resp, err
}
