package condorg

import (
	"context"
	"fmt"
	"time"

	"condorg/internal/gsi"
	"condorg/internal/wire"
)

// ControlService is the wire service name for the agent's command
// interface — the "API and command line tools" of §4.1 that preserve the
// look and feel of a local resource manager.
const ControlService = "condorg-control"

// ControlConfig configures the tenancy posture of a control endpoint.
//
// With a nil Anchor the endpoint runs in open (single-tenant) mode:
// requests are unauthenticated and the client-asserted Owner fields are
// trusted, exactly as a personal per-user agent trusts its local CLI.
// With an Anchor set, the wire layer demands a GSI session handshake on
// every connection and the owner of every ctl.v1 op is derived from the
// authenticated subject — request-body Owner fields are only ever
// cross-checked, never trusted. See DESIGN.md §11.
type ControlConfig struct {
	// Anchor is the trust anchor client credentials must chain to.
	// nil = open mode.
	Anchor *gsi.Certificate
	// OwnerOf maps an authenticated grid subject to a local owner name
	// (the gridmap role). nil = the subject is the owner. Returning ""
	// rejects the subject as unmapped.
	OwnerOf func(subject string) string
	// Admins names owners allowed agent-wide ops (unscoped queue
	// listings, metrics, health, journal replication) in authenticated
	// mode. In open mode everything is implicitly admin.
	Admins map[string]bool
	// Pool, when set, answers the admin-gated "pool" op with the elastic
	// glidein autoscaler's state. Nil reports Enabled=false — an agent
	// without a provisioner.
	Pool func() CtlPoolResp
}

// ControlServer exposes an Agent over the wire protocol so the condorg CLI
// (and tests) can submit, query, and manage jobs from another process.
// All commands travel through the versioned "ctl.v1" envelope (see
// controlv1.go).
type ControlServer struct {
	agent *Agent
	srv   *wire.Server
	cfg   ControlConfig
	ops   map[string]ctlOp
}

// NewControlServer starts an open-mode command endpoint for agent on a
// fresh port.
func NewControlServer(agent *Agent) (*ControlServer, error) {
	return NewControlServerAddr(agent, "127.0.0.1:0")
}

// NewControlServerAddr starts an open-mode command endpoint on an
// explicit address.
func NewControlServerAddr(agent *Agent, addr string) (*ControlServer, error) {
	return NewControlServerConfig(agent, addr, ControlConfig{})
}

// NewControlServerConfig starts a command endpoint with an explicit
// tenancy posture (see ControlConfig).
func NewControlServerConfig(agent *Agent, addr string, cfg ControlConfig) (*ControlServer, error) {
	srv, err := wire.NewServerAddr(addr, wire.ServerConfig{Name: ControlService, Anchor: cfg.Anchor})
	if err != nil {
		return nil, err
	}
	c := &ControlServer{agent: agent, srv: srv, cfg: cfg}
	c.registerOps()
	srv.Handle("ctl.v1", c.handleV1)
	return c, nil
}

// Addr returns the control endpoint address.
func (c *ControlServer) Addr() string { return c.srv.Addr() }

// Close stops the endpoint (the agent itself is not touched).
func (c *ControlServer) Close() error { return c.srv.Close() }

// CtlSubmit is the submit request: Program names a site-registered program
// (staged as a "#!condor" stub through GASS). Owner is optional and only
// cross-checked on authenticated endpoints — the effective owner comes
// from the session (CtlCodeOwnerMismatch when they disagree).
type CtlSubmit struct {
	Owner     string            `json:"owner,omitempty"`
	Program   string            `json:"program"`
	Args      []string          `json:"args,omitempty"`
	Stdin     []byte            `json:"stdin,omitempty"`
	Site      string            `json:"site,omitempty"`
	Cpus      int               `json:"cpus,omitempty"`
	WallLimit time.Duration     `json:"wall_limit,omitempty"`
	Env       map[string]string `json:"env,omitempty"`
}

type ctlID struct {
	ID string `json:"id"`
}

type ctlHold struct {
	ID     string `json:"id"`
	Reason string `json:"reason"`
}

type ctlLog struct {
	Events []LogEvent `json:"events"`
}

type ctlData struct {
	Data []byte `json:"data"`
}

type ctlWait struct {
	ID         string `json:"id"`
	TimeoutSec int    `json:"timeout_sec"`
}

// ControlClient is the CLI side of the control protocol. It speaks v1:
// failures from the agent come back as *CtlError, so callers can branch
// on the stable Code or on faultclass.ClassOf(err).
type ControlClient struct {
	wc *wire.Client
}

// NewControlClient connects to a control endpoint without credentials
// (open-mode endpoints only).
func NewControlClient(addr string) *ControlClient {
	return NewControlClientAuth(addr, nil)
}

// NewControlClientAuth connects to a control endpoint authenticating as
// cred: the wire session handshake binds the connection to cred's
// subject, and the server derives the owner of every op from it. A nil
// cred sends no authentication.
func NewControlClientAuth(addr string, cred *gsi.Credential) *ControlClient {
	return &ControlClient{wc: wire.Dial(addr, wire.ClientConfig{
		ServerName: ControlService,
		Credential: cred,
		Timeout:    3 * time.Second,
	})}
}

// Close releases the connection.
func (c *ControlClient) Close() error { return c.wc.Close() }

// Submit submits a job and returns its ID.
func (c *ControlClient) Submit(req CtlSubmit) (string, error) {
	var resp ctlID
	if err := c.call("submit", req, &resp); err != nil {
		return "", err
	}
	return resp.ID, nil
}

// Queue lists all jobs visible to the caller. Use QueueFiltered for
// filtering and pagination.
func (c *ControlClient) Queue() ([]JobInfo, error) {
	jobs, _, err := c.QueueFiltered(CtlQueueReq{})
	return jobs, err
}

// Status fetches one job.
func (c *ControlClient) Status(id string) (JobInfo, error) {
	var info JobInfo
	err := c.call("status", ctlID{ID: id}, &info)
	return info, err
}

// Remove cancels a job.
func (c *ControlClient) Remove(id string) error {
	return c.call("rm", ctlID{ID: id}, nil)
}

// Hold parks a job.
func (c *ControlClient) Hold(id, reason string) error {
	return c.call("hold", ctlHold{ID: id, Reason: reason}, nil)
}

// Release releases a held job.
func (c *ControlClient) Release(id string) error {
	return c.call("release", ctlID{ID: id}, nil)
}

// Log fetches the user log.
func (c *ControlClient) Log(id string) ([]LogEvent, error) {
	var resp ctlLog
	if err := c.call("log", ctlID{ID: id}, &resp); err != nil {
		return nil, err
	}
	return resp.Events, nil
}

// Stdout fetches streamed standard output.
func (c *ControlClient) Stdout(id string) ([]byte, error) {
	var resp ctlData
	if err := c.call("stdout", ctlID{ID: id}, &resp); err != nil {
		return nil, err
	}
	return resp.Data, nil
}

// Wait blocks (polling) until the job is terminal or timeout elapses.
func (c *ControlClient) Wait(id string, timeout time.Duration) (JobInfo, error) {
	return c.WaitCtx(context.Background(), id, timeout)
}

// WaitCtx is Wait observing ctx: the poll loop re-checks the context
// between one-second long-poll rounds, so an abandoned caller releases
// its agent connection within a round instead of parking for the full
// timeout.
func (c *ControlClient) WaitCtx(ctx context.Context, id string, timeout time.Duration) (JobInfo, error) {
	deadline := time.Now().Add(timeout)
	for {
		if err := ctx.Err(); err != nil {
			return JobInfo{}, fmt.Errorf("condorg: wait for %s: %w", id, err)
		}
		var info JobInfo
		if err := c.call("wait", ctlWait{ID: id, TimeoutSec: 1}, &info); err != nil {
			return JobInfo{}, err
		}
		if info.State.Terminal() {
			return info, nil
		}
		if time.Now().After(deadline) {
			return info, fmt.Errorf("condorg: wait for %s timed out in state %v", id, info.State)
		}
	}
}
