// Batched GRAM verbs: the only way a client submits, commits, probes,
// cancels and re-delegates, with a single job sent as a batch of one. A
// GridManager managing many jobs at one site pays one frame, one syscall
// pair, and one auth check per *verb*, not per *job*: gram.batch-submit and
// gram.batch-commit carry N submissions through the two-phase commit,
// jm.batch-status / jm.batch-cancel address a site's JobManagers collectively
// through the Gatekeeper — the interface machine all of a site's JobManagers
// live on (§4.1) — and gram.batch-refresh-credential hands N jobs one
// refreshed proxy there (§4.3).
//
// Every batch op returns exactly one result per entry, in order, and a
// failing entry never fails the batch: per-entry errors carry their own
// fault class so the caller can hold, resubmit, or retry each job
// independently. (What the whole frame shares — a refresh frame's one proxy
// — fails the whole frame when it is refused.)
package gram

import (
	"encoding/json"
	"fmt"
	"time"

	"condorg/internal/faultclass"
	"condorg/internal/gsi"
	"condorg/internal/obs"
	"condorg/internal/wire"
)

type batchSubmitReq struct {
	Entries []submitReq `json:"entries"`
}

type batchSubmitResult struct {
	JobID string           `json:"job_id,omitempty"`
	Error string           `json:"error,omitempty"`
	Fault faultclass.Class `json:"fault,omitempty"`
}

type batchSubmitResp struct {
	Results []batchSubmitResult `json:"results"`
}

type batchIDsReq struct {
	JobIDs []string `json:"job_ids"`
}

// batchCommitReq is gram.batch-commit's body: the jobs to commit, and where
// the caller now listens — its GASS server and its callback endpoint. Empty
// addresses leave the jobs' as they are (see Site.repoint).
type batchCommitReq struct {
	JobIDs   []string `json:"job_ids"`
	GASS     string   `json:"gass,omitempty"`
	Callback string   `json:"callback,omitempty"`
}

// batchRefreshReq is gram.batch-refresh-credential's body: the jobs to hand
// the proxy, and the one proxy — scoped to this gatekeeper — they all get.
type batchRefreshReq struct {
	JobIDs    []string `json:"job_ids"`
	Delegated []byte   `json:"delegated"`
}

// batchOpResult is the per-entry outcome of an op with no per-entry
// payload (cancel, refresh-credential).
type batchOpResult struct {
	Error string           `json:"error,omitempty"`
	Fault faultclass.Class `json:"fault,omitempty"`
}

type batchOpResp struct {
	Results []batchOpResult `json:"results"`
}

// batchStatusResult is the per-entry outcome of jm.batch-status and of
// gram.batch-commit. A status entry carries the job's status unless it
// carries an error. A commit entry of a job the frame committed is empty —
// the job is in stage-in by construction — while a replayed commit's, or
// one refused because the job already failed, carries the status as
// jm.batch-status reports it, so a caller re-verifying its jobs learns
// their states from the commit itself.
type batchStatusResult struct {
	Status *StatusInfo `json:"status,omitempty"`
	// JMAlive reports whether the job's JobManager daemon is currently
	// running. A probe that finds it dead goes straight to gram.jm-restart.
	JMAlive bool             `json:"jm_alive,omitempty"`
	Error   string           `json:"error,omitempty"`
	Fault   faultclass.Class `json:"fault,omitempty"`
}

type batchStatusResp struct {
	Results []batchStatusResult `json:"results"`
}

func opErr(err error) batchOpResult {
	return batchOpResult{Error: err.Error(), Fault: faultclass.ClassOf(err)}
}

func (s *Site) handleBatchSubmit(peer string, body json.RawMessage) (any, error) {
	var req batchSubmitReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	resp := batchSubmitResp{Results: make([]batchSubmitResult, len(req.Entries))}
	for i, e := range req.Entries {
		id, err := s.submitOne(peer, e)
		if err != nil {
			resp.Results[i] = batchSubmitResult{Error: err.Error(), Fault: faultclass.ClassOf(err)}
			continue
		}
		resp.Results[i] = batchSubmitResult{JobID: id}
	}
	return resp, nil
}

func (s *Site) handleBatchCommit(peer string, body json.RawMessage) (any, error) {
	var req batchCommitReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	resp := batchStatusResp{Results: make([]batchStatusResult, len(req.JobIDs))}
	for i, id := range req.JobIDs {
		job, fresh, err := s.commitOne(peer, id, req.GASS, req.Callback)
		if job != nil && !fresh {
			// Built after commitOne re-pointed the job: a terminal status
			// here lets its JobManager exit, and it must know where to
			// drain first.
			resp.Results[i] = s.statusEntry(job)
		}
		if err != nil {
			resp.Results[i].Error, resp.Results[i].Fault = err.Error(), faultclass.ClassOf(err)
		}
	}
	return resp, nil
}

// handleBatchRefreshCredential vets the frame's proxy once — the same
// checks as a submit-time delegation (chain and site scope, see
// checkDelegated), plus subject == peer on an authenticated site — so a
// renewed credential cannot launder away the original restriction. A refused
// proxy fails the whole frame with its class (Permanent for a wrong scope).
// Each entry the caller owns then gets the proxy, whether or not its
// JobManager runs: a replacement started by gram.jm-restart reads it.
func (s *Site) handleBatchRefreshCredential(peer string, body json.RawMessage) (any, error) {
	var req batchRefreshReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	cred, err := gsi.DecodeCredential(req.Delegated)
	if err != nil {
		return nil, fmt.Errorf("gram: bad delegated credential: %w", err)
	}
	if err := s.checkDelegated(cred); err != nil {
		return nil, err
	}
	if s.cfg.Anchor != nil {
		if subject := cred.Subject(); subject != peer {
			return nil, fmt.Errorf("gram: refreshed credential subject %s != peer %s", subject, peer)
		}
	}
	resp := batchOpResp{Results: make([]batchOpResult, len(req.JobIDs))}
	for i, id := range req.JobIDs {
		job, err := s.ownedJob(peer, id)
		if err != nil {
			resp.Results[i] = opErr(err)
			continue
		}
		job.mu.Lock()
		job.cred = cred
		job.mu.Unlock()
	}
	return resp, nil
}

func (s *Site) handleBatchStatus(peer string, body json.RawMessage) (any, error) {
	var req batchIDsReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	resp := batchStatusResp{Results: make([]batchStatusResult, len(req.JobIDs))}
	for i, id := range req.JobIDs {
		job, err := s.ownedJob(peer, id)
		if err != nil {
			resp.Results[i] = batchStatusResult{Error: err.Error(), Fault: faultclass.ClassOf(err)}
			continue
		}
		resp.Results[i] = s.statusEntry(job)
	}
	return resp, nil
}

// statusEntry is one job's entry in a reply that reports its status: the
// status with the output bytes pushed so far, and whether its JobManager
// runs. A terminal status marks the JobManager delivered — the reply tells
// the client the job is over, which is what the daemon waits for before
// exiting.
func (s *Site) statusEntry(job *siteJob) batchStatusResult {
	job.mu.Lock()
	st := job.status
	jm := job.jm
	job.mu.Unlock()
	st.StdoutSent = job.stdout.sentBytes()
	st.StderrSent = job.stderr.sentBytes()
	if jm != nil && st.State.Terminal() {
		jm.markDelivered()
	}
	return batchStatusResult{Status: &st, JMAlive: jm != nil}
}

func (s *Site) handleBatchCancel(peer string, body json.RawMessage) (any, error) {
	var req batchIDsReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	resp := batchOpResp{Results: make([]batchOpResult, len(req.JobIDs))}
	for i, id := range req.JobIDs {
		// An unknown job cannot be running: SiteLost lets the canceller
		// retire the tombstone.
		job, err := s.ownedJob(peer, id)
		if err == nil {
			err = s.cancelJob(job)
		}
		if err != nil {
			resp.Results[i] = opErr(err)
		}
	}
	return resp, nil
}

// cancelJob kills one job: not yet in the LRM means a direct Failed
// verdict (a cancellation is the user's own verdict — never retried),
// otherwise the LRM does it and the status flows back through watchLRM.
// The body of each jm.batch-cancel entry.
func (s *Site) cancelJob(job *siteJob) error {
	job.mu.Lock()
	lrmID := job.lrmID
	state := job.status.State
	job.mu.Unlock()
	if state.Terminal() {
		return nil
	}
	if lrmID == "" {
		job.mu.Lock()
		job.status.State = StateFailed
		job.status.Error = "cancelled before submission"
		job.status.Fault = faultclass.Permanent
		job.mu.Unlock()
		s.persist(job)
		return nil
	}
	return s.cfg.Cluster.Cancel(lrmID)
}

// --- client side ---

// BatchSubmitEntry is one submission in a BatchSubmit call.
type BatchSubmitEntry struct {
	Spec JobSpec
	Opts SubmitOptions
}

// BatchSubmitResult is one entry's outcome: Contact on success, Err (a
// *wire.RemoteError carrying the fault class) on a per-entry failure.
type BatchSubmitResult struct {
	Contact JobContact
	Err     error
}

// BatchStatusResult is one entry's outcome of a BatchStatus sweep or a
// BatchCommit. Status is the zero StatusInfo when the entry carries none:
// a failed probe entry, or a job the commit frame itself committed.
type BatchStatusResult struct {
	Status  StatusInfo
	JMAlive bool
	Err     error
}

func entryErr(msg string, class faultclass.Class) error {
	if msg == "" {
		return nil
	}
	return &wire.RemoteError{Msg: msg, Class: class}
}

// observeBatch feeds the batch-size histogram for one issued batch op.
func (c *Client) observeBatch(verb string, n int) {
	c.mu.Lock()
	reg := c.obs
	c.mu.Unlock()
	if reg != nil {
		reg.Histogram(obs.Key("gram_batch_size", "verb", verb)).Observe(float64(n))
	}
}

// BatchSubmit runs phase one for several jobs bound to the same
// gatekeeper in one frame. One result per entry, in order.
func (c *Client) BatchSubmit(gkAddr string, entries []BatchSubmitEntry) ([]BatchSubmitResult, error) {
	req := batchSubmitReq{Entries: make([]submitReq, len(entries))}
	for i, e := range entries {
		sr := submitReq{SubmissionID: e.Opts.SubmissionID, Spec: e.Spec, Callback: e.Opts.Callback}
		if e.Opts.Capability != nil {
			data, err := gsi.EncodeCapability(e.Opts.Capability)
			if err != nil {
				return nil, err
			}
			sr.Capability = data
		}
		if e.Opts.Delegate > 0 {
			data, err := c.delegateFor(gkAddr, e.Opts.Delegate)
			if err != nil {
				return nil, err
			}
			sr.Delegated = data
		}
		req.Entries[i] = sr
	}
	var resp batchSubmitResp
	if err := c.guard(gkAddr, "batch-submit", func(gk *wire.Client) error {
		return gk.Call("gram.batch-submit", req, &resp)
	}); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(entries) {
		return nil, fmt.Errorf("gram: batch-submit returned %d results for %d entries",
			len(resp.Results), len(entries))
	}
	c.observeBatch("submit", len(entries))
	out := make([]BatchSubmitResult, len(entries))
	for i, r := range resp.Results {
		if r.Error != "" {
			out[i].Err = entryErr(r.Error, r.Fault)
			continue
		}
		out[i].Contact = JobContact{GatekeeperAddr: gkAddr, JobID: r.JobID}
	}
	return out, nil
}

// BatchCommit runs phase two for several jobs in one frame, telling the
// site where the caller's GASS server (gassAddr) and callback endpoint
// (callback) listen now; the site re-points any job whose addresses moved,
// which is how a restarted submit machine reconnects its jobs (§4.2). Empty
// addresses re-point nothing. The returned slice has one entry per job ID.
// Err is the entry's error. A job this frame committed carries no status;
// a job committed before — the replay a restarted submit machine sends —
// carries its status and JobManager liveness as BatchStatus reports them,
// and so does a job that failed before its commit arrived, beside the
// error that refuses the commit.
func (c *Client) BatchCommit(gkAddr string, jobIDs []string, gassAddr, callback string) ([]BatchStatusResult, error) {
	req := batchCommitReq{JobIDs: jobIDs, GASS: gassAddr, Callback: callback}
	return c.statusOp(gkAddr, "commit", "gram.batch-commit", req, len(jobIDs))
}

// BatchRefreshCredential re-forwards the client's current proxy to several
// jobs at one site in one frame (§4.3): one fresh delegation of lifetime,
// scoped to gkAddr like the submit-time one, that the site installs for every
// job without holding or interrupting it. A proxy the client cannot mint
// fails with a Permanent error before any I/O: minting again cannot help. The
// returned slice has one entry per job ID: nil, or that entry's error.
func (c *Client) BatchRefreshCredential(gkAddr string, jobIDs []string, lifetime time.Duration) ([]error, error) {
	data, err := c.delegateFor(gkAddr, lifetime)
	if err != nil {
		return nil, faultclass.New(faultclass.Permanent, err)
	}
	req := batchRefreshReq{JobIDs: jobIDs, Delegated: data}
	return c.batchOp(gkAddr, "refresh-credential", "gram.batch-refresh-credential", req, len(jobIDs))
}

// batchOp sends one frame of an op whose entries carry no payload of their
// own (cancel, refresh-credential) to the gatekeeper and returns one error
// slot per entry.
func (c *Client) batchOp(gkAddr, verb, method string, req any, n int) ([]error, error) {
	var resp batchOpResp
	if err := c.guard(gkAddr, "batch-"+verb, func(gk *wire.Client) error {
		return gk.Call(method, req, &resp)
	}); err != nil {
		return nil, err
	}
	if len(resp.Results) != n {
		return nil, fmt.Errorf("gram: batch-%s returned %d results for %d jobs",
			verb, len(resp.Results), n)
	}
	c.observeBatch(verb, n)
	out := make([]error, n)
	for i, r := range resp.Results {
		out[i] = entryErr(r.Error, r.Fault)
	}
	return out, nil
}

// BatchStatus probes several jobs at one site in one frame, addressed to
// the gatekeeper (the machine the site's JobManagers run on).
func (c *Client) BatchStatus(gkAddr string, jobIDs []string) ([]BatchStatusResult, error) {
	return c.statusOp(gkAddr, "status", "jm.batch-status", batchIDsReq{JobIDs: jobIDs}, len(jobIDs))
}

// statusOp sends one frame of an op whose entries answer with a status
// (status, commit) to the gatekeeper and returns one result per entry.
func (c *Client) statusOp(gkAddr, verb, method string, req any, n int) ([]BatchStatusResult, error) {
	var resp batchStatusResp
	if err := c.guard(gkAddr, "batch-"+verb, func(gk *wire.Client) error {
		return gk.Call(method, req, &resp)
	}); err != nil {
		return nil, err
	}
	if len(resp.Results) != n {
		return nil, fmt.Errorf("gram: batch-%s returned %d results for %d jobs",
			verb, len(resp.Results), n)
	}
	c.observeBatch(verb, n)
	out := make([]BatchStatusResult, n)
	for i, r := range resp.Results {
		out[i] = BatchStatusResult{JMAlive: r.JMAlive, Err: entryErr(r.Error, r.Fault)}
		if r.Status != nil {
			out[i].Status = *r.Status
		}
	}
	return out, nil
}

// BatchCancel kills several jobs at one site in one frame. One error slot
// per job ID (nil = cancelled or already terminal).
func (c *Client) BatchCancel(gkAddr string, jobIDs []string) ([]error, error) {
	return c.batchOp(gkAddr, "cancel", "jm.batch-cancel", batchIDsReq{JobIDs: jobIDs}, len(jobIDs))
}
