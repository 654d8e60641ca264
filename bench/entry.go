package main

// The three depths a client can enter the stack at. The workloads use the
// outermost door that can carry them (the gateway, or Agent.Submit when
// executable bytes must travel); the entry-depth peel runs the same loop at
// all three and attributes the differences to the skipped layers.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"condorg/internal/condorg"
	"condorg/internal/gateway"
)

// waitTimeout bounds one job's wait; hitting it is a failed operation.
const waitTimeout = 60 * time.Second

// entry is one client's connection to the system.
type entry interface {
	submit(j *job) (id string, err error)
	wait(j *job) (condorg.JobInfo, error)
	stdout(j *job) ([]byte, error)
	close()
}

// depth names an entry point.
type depth string

const (
	depthGateway depth = "gateway"
	depthCtl     depth = "ctl"
	depthAgent   depth = "agent"
)

func (s *stack) newEntry(d depth) entry {
	switch d {
	case depthGateway:
		return newGatewayEntry(s.gw.Addr())
	case depthCtl:
		return &ctlEntry{s: s, clients: map[int]*condorg.ControlClient{}}
	default:
		return &agentEntry{s: s}
	}
}

// rotatingEntry is one client holding several doors: each submitted job
// takes the next door in turn (job.via remembers which), so the doors see
// the same machine at the same time. With one door it is that door.
type rotatingEntry struct {
	doors []entry
	next  int
}

func (s *stack) newClient(depths []depth) *rotatingEntry {
	r := &rotatingEntry{}
	for _, d := range depths {
		r.doors = append(r.doors, s.newEntry(d))
	}
	return r
}

func (r *rotatingEntry) submit(j *job) (string, error) {
	j.via = r.next % len(r.doors)
	r.next++
	return r.doors[j.via].submit(j)
}

func (r *rotatingEntry) wait(j *job) (condorg.JobInfo, error) { return r.doors[j.via].wait(j) }
func (r *rotatingEntry) stdout(j *job) ([]byte, error)        { return r.doors[j.via].stdout(j) }

func (r *rotatingEntry) close() {
	for _, d := range r.doors {
		d.close()
	}
}

type gatewayEntry struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

// newGatewayEntry is one HTTP client holding one keep-alive connection, as
// a browser tab or a portal worker would.
func newGatewayEntry(addr string) *gatewayEntry {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &gatewayEntry{base: "http://" + addr, tr: tr, hc: &http.Client{Transport: tr}}
}

// do runs one request as the job's owner and decodes a 200 body into out.
func (e *gatewayEntry) do(j *job, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, e.base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+ownerToken(j.owner))
	resp, err := e.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if b, ok := out.(*[]byte); ok {
		*b = raw
		return nil
	}
	return json.Unmarshal(raw, out)
}

func (e *gatewayEntry) submit(j *job) (string, error) {
	var resp gateway.SubmitResponse
	err := e.do(j, "POST", "/v1/jobs", gateway.SubmitRequest{Program: j.program, Args: []string{j.tag}}, &resp)
	return resp.ID, err
}

func (e *gatewayEntry) wait(j *job) (condorg.JobInfo, error) {
	var info condorg.JobInfo
	err := e.do(j, "GET", "/v1/jobs/"+j.id+"/wait?timeout="+waitTimeout.String(), nil, &info)
	return info, err
}

func (e *gatewayEntry) stdout(j *job) ([]byte, error) {
	var out []byte
	err := e.do(j, "GET", "/v1/jobs/"+j.id+"/stdout", nil, &out)
	return out, err
}

func (e *gatewayEntry) close() { e.tr.CloseIdleConnections() }

// ctlEntry speaks ctl.v1 directly, one authenticated session per owner —
// what the gateway holds on a user's behalf.
type ctlEntry struct {
	s       *stack
	clients map[int]*condorg.ControlClient
}

func (e *ctlEntry) client(owner int) *condorg.ControlClient {
	c := e.clients[owner]
	if c == nil {
		c = condorg.NewControlClientAuth(e.s.ctl.Addr(), e.s.creds[owner])
		e.clients[owner] = c
	}
	return c
}

func (e *ctlEntry) submit(j *job) (string, error) {
	return e.client(j.owner).Submit(condorg.CtlSubmit{Program: j.program, Args: []string{j.tag}})
}

func (e *ctlEntry) wait(j *job) (condorg.JobInfo, error) {
	return e.client(j.owner).Wait(j.id, waitTimeout)
}

func (e *ctlEntry) stdout(j *job) ([]byte, error) { return e.client(j.owner).Stdout(j.id) }

func (e *ctlEntry) close() {
	for _, c := range e.clients {
		c.Close()
	}
}

// agentEntry calls the agent in-process: the only door that carries
// executable bytes (ctl.v1 and the gateway carry program names only).
type agentEntry struct{ s *stack }

func (e *agentEntry) submit(j *job) (string, error) {
	return e.s.agent.Submit(condorg.SubmitRequest{
		Owner: e.s.owners[j.owner], Executable: e.s.rt.exec(j), Args: []string{j.tag},
	})
}

func (e *agentEntry) wait(j *job) (condorg.JobInfo, error) {
	ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
	defer cancel()
	return e.s.agent.Wait(ctx, j.id)
}

func (e *agentEntry) stdout(j *job) ([]byte, error) { return e.s.agent.Stdout(j.id) }

func (e *agentEntry) close() {}
