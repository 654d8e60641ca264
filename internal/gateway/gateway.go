// Package gateway is the HTTP front door of a multi-tenant condorg
// agent — the "grid portal" shape: a long-lived service that
// authenticates users (bearer tokens) and multiplexes them onto one
// shared agent over the ctl.v1 control protocol, each user riding an
// authenticated wire session bound to their own GSI credential so the
// agent derives job ownership from the session, never from request
// bodies. See DESIGN.md §11.
package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"condorg/internal/condorg"
	"condorg/internal/faultclass"
	"condorg/internal/gsi"
	"condorg/internal/obs"
)

// User is one authenticated principal of the gateway.
type User struct {
	// Owner is the local owner name the user's jobs run under.
	Owner string
	// Credential authenticates the gateway→agent wire session for this
	// user. When nil the gateway asserts Owner in request bodies
	// instead, which only an open-mode (trusted, single-host) agent
	// accepts.
	Credential *gsi.Credential
}

// Config configures a Gateway.
type Config struct {
	// Agent is the address of the agent's control endpoint.
	Agent string
	// Users maps bearer tokens to principals.
	Users map[string]User
	// Obs receives gateway request metrics; nil disables them.
	Obs *obs.Registry
}

// Gateway serves the HTTP API. Create one with New, then Serve (or use
// the Handler with an external http.Server) and Close.
type Gateway struct {
	cfg Config
	mux *http.ServeMux
	lis net.Listener
	srv *http.Server

	mu      sync.Mutex
	clients map[string]*condorg.ControlClient // owner -> control session
}

// New builds a gateway and binds its listener on addr (host:port;
// ":0" picks a port). Serve must be called to start accepting.
func New(addr string, cfg Config) (*Gateway, error) {
	if cfg.Agent == "" {
		return nil, errors.New("gateway: Config.Agent must name the control endpoint")
	}
	g := &Gateway{cfg: cfg, clients: make(map[string]*condorg.ControlClient)}
	g.mux = http.NewServeMux()
	g.mux.HandleFunc("POST /v1/jobs", g.wrap(g.handleSubmit))
	g.mux.HandleFunc("GET /v1/jobs", g.wrap(g.handleQueue))
	g.mux.HandleFunc("GET /v1/jobs/{id}", g.wrap(g.handleJob))
	g.mux.HandleFunc("DELETE /v1/jobs/{id}", g.wrap(g.handleRemove))
	g.mux.HandleFunc("POST /v1/jobs/{id}/hold", g.wrap(g.handleHold))
	g.mux.HandleFunc("POST /v1/jobs/{id}/release", g.wrap(g.handleRelease))
	g.mux.HandleFunc("GET /v1/jobs/{id}/wait", g.wrap(g.handleWait))
	g.mux.HandleFunc("GET /v1/jobs/{id}/log", g.wrap(g.handleLog))
	g.mux.HandleFunc("GET /v1/jobs/{id}/stdout", g.wrap(g.handleStdout))
	g.mux.HandleFunc("GET /v1/jobs/{id}/trace", g.wrap(g.handleTrace))
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	g.lis = lis
	g.srv = &http.Server{Handler: g.mux, ReadHeaderTimeout: 5 * time.Second}
	return g, nil
}

// Serve accepts HTTP requests until Close; it always returns a non-nil
// error (http.ErrServerClosed after a clean Close).
func (g *Gateway) Serve() error { return g.srv.Serve(g.lis) }

// Addr returns the bound listen address.
func (g *Gateway) Addr() string { return g.lis.Addr().String() }

// Close stops the HTTP server and tears down every agent session.
func (g *Gateway) Close() error {
	err := g.srv.Close()
	g.mu.Lock()
	defer g.mu.Unlock()
	for owner, cli := range g.clients {
		cli.Close()
		delete(g.clients, owner)
	}
	return err
}

// client returns (dialing on first use) the user's control session.
func (g *Gateway) client(u User) *condorg.ControlClient {
	g.mu.Lock()
	defer g.mu.Unlock()
	if cli, ok := g.clients[u.Owner]; ok {
		return cli
	}
	cli := condorg.NewControlClientAuth(g.cfg.Agent, u.Credential)
	g.clients[u.Owner] = cli
	return cli
}

// Error is the JSON error body: the ctl.v1 code/class taxonomy carried
// onto HTTP.
type Error struct {
	// Code is the stable machine code (condorg.CtlCode*, or "unauthorized"
	// / "bad-request" for errors raised by the gateway itself).
	Code string `json:"code"`
	// Msg is human prose.
	Msg string `json:"msg"`
	// Class is the faultclass name, "" when unknown.
	Class string `json:"class,omitempty"`
}

// errorBody is the top-level error envelope: {"error": {...}}.
type errorBody struct {
	Error Error `json:"error"`
}

// SubmitRequest is the POST /v1/jobs body. Stdin is base64 in JSON (Go
// []byte convention); WallLimit is a Go duration string ("90s").
type SubmitRequest struct {
	// Program names a site-registered program.
	Program string `json:"program"`
	// Args are the program arguments.
	Args []string `json:"args,omitempty"`
	// Stdin is staged to the job as its standard input.
	Stdin []byte `json:"stdin,omitempty"`
	// Site pins the job to one gatekeeper address ("" lets the agent
	// match).
	Site string `json:"site,omitempty"`
	// Cpus is the requested CPU count.
	Cpus int `json:"cpus,omitempty"`
	// WallLimit bounds the job's wall-clock run time.
	WallLimit string `json:"wall_limit,omitempty"`
	// Env is extra environment for the job.
	Env map[string]string `json:"env,omitempty"`
}

// SubmitResponse is the POST /v1/jobs result.
type SubmitResponse struct {
	// ID is the agent-assigned job ID.
	ID string `json:"id"`
}

// QueueResponse is one page of GET /v1/jobs; Next, when non-empty, is
// the opaque after= cursor for the following page.
type QueueResponse struct {
	// Jobs is the page of matching jobs.
	Jobs []condorg.JobInfo `json:"jobs"`
	// Next is the pagination cursor ("" on the last page).
	Next string `json:"next,omitempty"`
}

// LogResponse is the GET /v1/jobs/{id}/log result.
type LogResponse struct {
	// Events is the job's user-log timeline.
	Events []condorg.LogEvent `json:"events"`
}

// handler is one authenticated endpoint: the resolved user is already
// authenticated and the returned value is JSON-encoded (a nil value
// with a nil error writes 204).
type handler func(u User, w http.ResponseWriter, r *http.Request) (any, error)

// wrap adds bearer authentication, error mapping, and JSON encoding
// around a handler.
func (g *Gateway) wrap(h handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		u, ok := g.authenticate(r)
		if !ok {
			g.count("unauthorized")
			writeJSON(w, http.StatusUnauthorized, errorBody{Error: Error{
				Code: "unauthorized", Msg: "gateway: missing or unknown bearer token",
			}})
			return
		}
		v, err := h(u, w, r)
		if err != nil {
			status, body := httpError(err)
			g.count(body.Error.Code)
			writeJSON(w, status, body)
			return
		}
		g.count("ok")
		if _, done := v.(skipEncode); done {
			return
		}
		if v == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, http.StatusOK, v)
	}
}

// authenticate resolves the request's bearer token.
func (g *Gateway) authenticate(r *http.Request) (User, bool) {
	tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	if !ok || tok == "" {
		return User{}, false
	}
	u, ok := g.cfg.Users[tok]
	return u, ok
}

// count bumps the per-outcome request counter.
func (g *Gateway) count(code string) {
	g.cfg.Obs.Counter(obs.Key("gateway_requests_total", "code", code)).Inc()
}

// httpError maps an error from the control plane onto an HTTP status
// and JSON body, preserving the stable ctl code and fault class.
func httpError(err error) (int, errorBody) {
	var ce *condorg.CtlError
	if errors.As(err, &ce) {
		status := http.StatusBadGateway
		switch ce.Code {
		case condorg.CtlCodeBadRequest:
			status = http.StatusBadRequest
		case condorg.CtlCodeNoSuchJob:
			status = http.StatusNotFound
		case condorg.CtlCodeBadState:
			status = http.StatusConflict
		case condorg.CtlCodeQuotaExceeded, condorg.CtlCodeRateLimited:
			status = http.StatusTooManyRequests
		case condorg.CtlCodeOwnerMismatch, condorg.CtlCodeForbidden:
			status = http.StatusForbidden
		case condorg.CtlCodeSubmitFailed, condorg.CtlCodeInternal,
			condorg.CtlCodeUnsupportedVersion, condorg.CtlCodeUnknownOp:
			status = http.StatusBadGateway
		}
		return status, errorBody{Error: Error{Code: ce.Code, Msg: ce.Msg, Class: ce.Class.String()}}
	}
	var be *badRequestError
	if errors.As(err, &be) {
		return http.StatusBadRequest, errorBody{Error: Error{Code: "bad-request", Msg: be.msg}}
	}
	return http.StatusBadGateway, errorBody{Error: Error{
		Code: "upstream", Msg: err.Error(), Class: faultclass.ClassOf(err).String(),
	}}
}

// badRequestError marks a request the gateway itself rejected.
type badRequestError struct{ msg string }

// Error implements error.
func (e *badRequestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &badRequestError{msg: fmt.Sprintf(format, args...)}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (g *Gateway) handleSubmit(u User, _ http.ResponseWriter, r *http.Request) (any, error) {
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, badRequest("gateway: bad submit body: %v", err)
	}
	var wall time.Duration
	if req.WallLimit != "" {
		var err error
		if wall, err = time.ParseDuration(req.WallLimit); err != nil {
			return nil, badRequest("gateway: bad wall_limit: %v", err)
		}
	}
	sub := condorg.CtlSubmit{
		Program:   req.Program,
		Args:      req.Args,
		Stdin:     req.Stdin,
		Site:      req.Site,
		Cpus:      req.Cpus,
		WallLimit: wall,
		Env:       req.Env,
	}
	if u.Credential == nil {
		// Trusted mode: no session identity, so the gateway asserts the
		// owner on the user's behalf.
		sub.Owner = u.Owner
	}
	id, err := g.client(u).Submit(sub)
	if err != nil {
		return nil, err
	}
	return SubmitResponse{ID: id}, nil
}

func (g *Gateway) handleQueue(u User, _ http.ResponseWriter, r *http.Request) (any, error) {
	q := r.URL.Query()
	req := condorg.CtlQueueReq{After: q.Get("after")}
	if u.Credential == nil {
		req.Owner = u.Owner
	}
	if s := q.Get("limit"); s != "" {
		if _, err := fmt.Sscanf(s, "%d", &req.Limit); err != nil {
			return nil, badRequest("gateway: bad limit %q", s)
		}
	}
	for _, name := range q["state"] {
		st, err := condorg.ParseJobState(name)
		if err != nil {
			return nil, badRequest("gateway: %v", err)
		}
		req.States = append(req.States, st)
	}
	jobs, next, err := g.client(u).QueueFiltered(req)
	if err != nil {
		return nil, err
	}
	return QueueResponse{Jobs: jobs, Next: next}, nil
}

// noSuchJob mirrors the control plane's anti-enumeration answer: a
// foreign job is indistinguishable from a nonexistent one.
func noSuchJob(id string) *condorg.CtlError {
	return &condorg.CtlError{
		Code:  condorg.CtlCodeNoSuchJob,
		Msg:   fmt.Sprintf("condorg: no such job %s", id),
		Class: faultclass.Permanent,
	}
}

// authorize gates a per-job op on the job belonging to u. With a
// per-user credential the agent already scopes every op to the wire
// session's owner; in trusted mode the gateway's control session is
// open (effectively admin), so ownership must be enforced here — by a
// status look-up — before the op runs.
func (g *Gateway) authorize(u User, id string) error {
	if u.Credential != nil {
		return nil
	}
	info, err := g.client(u).Status(id)
	if err != nil {
		return err
	}
	if info.Owner != u.Owner {
		return noSuchJob(id)
	}
	return nil
}

func (g *Gateway) handleJob(u User, _ http.ResponseWriter, r *http.Request) (any, error) {
	id := r.PathValue("id")
	info, err := g.client(u).Status(id)
	if err != nil {
		return nil, err
	}
	if u.Credential == nil && info.Owner != u.Owner {
		return nil, noSuchJob(id)
	}
	return info, nil
}

func (g *Gateway) handleRemove(u User, _ http.ResponseWriter, r *http.Request) (any, error) {
	if err := g.authorize(u, r.PathValue("id")); err != nil {
		return nil, err
	}
	return nil, g.client(u).Remove(r.PathValue("id"))
}

func (g *Gateway) handleHold(u User, _ http.ResponseWriter, r *http.Request) (any, error) {
	var req struct {
		Reason string `json:"reason"`
	}
	if r.Body != nil && r.ContentLength != 0 {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return nil, badRequest("gateway: bad hold body: %v", err)
		}
	}
	if err := g.authorize(u, r.PathValue("id")); err != nil {
		return nil, err
	}
	return nil, g.client(u).Hold(r.PathValue("id"), req.Reason)
}

func (g *Gateway) handleRelease(u User, _ http.ResponseWriter, r *http.Request) (any, error) {
	if err := g.authorize(u, r.PathValue("id")); err != nil {
		return nil, err
	}
	return nil, g.client(u).Release(r.PathValue("id"))
}

// maxWaitTimeout is the server-side ceiling on one long-poll round of
// GET /v1/jobs/{id}/wait. A client wanting to wait longer re-issues the
// request; without the cap one request could pin an agent connection for
// an arbitrary client-chosen duration.
const maxWaitTimeout = 5 * time.Minute

func (g *Gateway) handleWait(u User, _ http.ResponseWriter, r *http.Request) (any, error) {
	timeout := 30 * time.Second
	if s := r.URL.Query().Get("timeout"); s != "" {
		var err error
		if timeout, err = time.ParseDuration(s); err != nil {
			return nil, badRequest("gateway: bad timeout: %v", err)
		}
	}
	if timeout > maxWaitTimeout {
		timeout = maxWaitTimeout
	}
	if err := g.authorize(u, r.PathValue("id")); err != nil {
		return nil, err
	}
	// The request context propagates into the poll loop: a client that
	// hangs up frees the handler (and its agent connection) within one
	// poll round instead of waiting out the timeout.
	info, err := g.client(u).WaitCtx(r.Context(), r.PathValue("id"), timeout)
	if err != nil && !strings.Contains(err.Error(), "timed out") {
		return nil, err
	}
	return info, nil
}

func (g *Gateway) handleLog(u User, _ http.ResponseWriter, r *http.Request) (any, error) {
	if err := g.authorize(u, r.PathValue("id")); err != nil {
		return nil, err
	}
	events, err := g.client(u).Log(r.PathValue("id"))
	if err != nil {
		return nil, err
	}
	return LogResponse{Events: events}, nil
}

func (g *Gateway) handleStdout(u User, w http.ResponseWriter, r *http.Request) (any, error) {
	if err := g.authorize(u, r.PathValue("id")); err != nil {
		return nil, err
	}
	data, err := g.client(u).Stdout(r.PathValue("id"))
	if err != nil {
		return nil, err
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
	return skipEncode{}, nil
}

func (g *Gateway) handleTrace(u User, _ http.ResponseWriter, r *http.Request) (any, error) {
	if err := g.authorize(u, r.PathValue("id")); err != nil {
		return nil, err
	}
	var resp condorg.CtlTraceResp
	tl, err := g.client(u).Trace(r.PathValue("id"))
	if err != nil {
		return nil, err
	}
	resp.ID, resp.Timeline = r.PathValue("id"), tl
	return resp, nil
}

// skipEncode tells wrap the handler already wrote the response body.
type skipEncode struct{}
