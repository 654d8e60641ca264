// Batched GRAM verbs (wire protocol v2). A GridManager managing many jobs
// at one site pays one frame, one syscall pair, and one auth check per
// *verb*, not per *job*: gram.batch-submit and gram.batch-commit carry N
// submissions through the two-phase commit, and jm.batch-status /
// jm.batch-cancel address a site's JobManagers collectively through the
// Gatekeeper — the interface machine all of a site's JobManagers live on
// (§4.1) — instead of one RPC per JobManager connection.
//
// Every batch op returns exactly one result per entry, in order, and a
// failing entry never fails the batch: per-entry errors carry their own
// fault class so the caller can hold, resubmit, or retry each job
// independently.
package gram

import (
	"encoding/json"
	"fmt"

	"condorg/internal/faultclass"
	"condorg/internal/gsi"
	"condorg/internal/obs"
	"condorg/internal/wire"
)

type batchSubmitReq struct {
	Entries []submitReq `json:"entries"`
}

type batchSubmitResult struct {
	JobID          string           `json:"job_id,omitempty"`
	JobManagerAddr string           `json:"jobmanager_addr,omitempty"`
	Error          string           `json:"error,omitempty"`
	Fault          faultclass.Class `json:"fault,omitempty"`
}

type batchSubmitResp struct {
	Results []batchSubmitResult `json:"results"`
}

type batchIDsReq struct {
	JobIDs []string `json:"job_ids"`
}

// batchOpResult is the per-entry outcome of an op with no payload
// (commit, cancel).
type batchOpResult struct {
	Error string           `json:"error,omitempty"`
	Fault faultclass.Class `json:"fault,omitempty"`
}

type batchOpResp struct {
	Results []batchOpResult `json:"results"`
}

type batchStatusResult struct {
	Status StatusInfo `json:"status"`
	// JMAlive reports whether the job's JobManager daemon is currently
	// running. A batched probe that finds it dead skips the per-job ping
	// ladder and goes straight to gram.jm-restart.
	JMAlive bool             `json:"jm_alive"`
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
		r, err := s.submitOne(peer, e)
		if err != nil {
			resp.Results[i] = batchSubmitResult{Error: err.Error(), Fault: faultclass.ClassOf(err)}
			continue
		}
		resp.Results[i] = batchSubmitResult{JobID: r.JobID, JobManagerAddr: r.JobManagerAddr}
	}
	return resp, nil
}

func (s *Site) handleBatchCommit(peer string, body json.RawMessage) (any, error) {
	var req batchIDsReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	resp := batchOpResp{Results: make([]batchOpResult, len(req.JobIDs))}
	for i, id := range req.JobIDs {
		if err := s.commitOne(peer, id); err != nil {
			resp.Results[i] = opErr(err)
		}
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
		s.mu.Lock()
		job, ok := s.jobs[id]
		s.mu.Unlock()
		if !ok {
			// Same verdict a jm-restart for the job would reach: this
			// site has no record of it, so it is definitively lost here.
			resp.Results[i] = batchStatusResult{
				Error: fmt.Sprintf("gram: no record of job %q", id),
				Fault: faultclass.SiteLost,
			}
			continue
		}
		if s.cfg.Anchor != nil && job.owner != peer {
			resp.Results[i] = batchStatusResult{
				Error: fmt.Sprintf("gram: job %s belongs to %s", id, job.owner),
			}
			continue
		}
		job.mu.Lock()
		st := job.status
		jm := job.jm
		job.mu.Unlock()
		st.StdoutSent = job.stdout.sentBytes()
		st.StderrSent = job.stderr.sentBytes()
		resp.Results[i] = batchStatusResult{Status: st, JMAlive: jm != nil}
		if jm != nil && st.State.Terminal() {
			// This reply tells the client the job is over, which is what
			// its JobManager was waiting for before exiting.
			jm.markDelivered()
		}
	}
	return resp, nil
}

func (s *Site) handleBatchCancel(peer string, body json.RawMessage) (any, error) {
	var req batchIDsReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	resp := batchOpResp{Results: make([]batchOpResult, len(req.JobIDs))}
	for i, id := range req.JobIDs {
		s.mu.Lock()
		job, ok := s.jobs[id]
		s.mu.Unlock()
		if !ok {
			// An unknown job cannot be running: report it lost so the
			// canceller can retire the tombstone.
			resp.Results[i] = opErr(faultclass.New(faultclass.SiteLost,
				fmt.Errorf("gram: no record of job %q", id)))
			continue
		}
		if s.cfg.Anchor != nil && job.owner != peer {
			resp.Results[i] = opErr(fmt.Errorf("gram: job %s belongs to %s", id, job.owner))
			continue
		}
		if err := s.cancelJob(job); err != nil {
			resp.Results[i] = opErr(err)
		}
	}
	return resp, nil
}

// cancelJob kills one job: not yet in the LRM means a direct Failed
// verdict (a cancellation is the user's own verdict — never retried),
// otherwise the LRM does it and the status flows back through watchLRM.
// Shared core of jm.cancel and each entry of jm.batch-cancel.
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

// BatchStatusResult is one entry's outcome of a BatchStatus sweep.
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
	if err := c.guard(gkAddr, "batch-submit", func() error {
		return c.gatekeeper(gkAddr).Call("gram.batch-submit", req, &resp)
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
		out[i].Contact = JobContact{
			JobManagerAddr: r.JobManagerAddr,
			GatekeeperAddr: gkAddr,
			JobID:          r.JobID,
		}
	}
	return out, nil
}

// BatchCommit runs phase two for several jobs in one frame. The returned
// slice has one entry per job ID: nil, or that entry's error.
func (c *Client) BatchCommit(gkAddr string, jobIDs []string) ([]error, error) {
	var resp batchOpResp
	if err := c.guard(gkAddr, "batch-commit", func() error {
		return c.gatekeeper(gkAddr).Call("gram.batch-commit", batchIDsReq{JobIDs: jobIDs}, &resp)
	}); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(jobIDs) {
		return nil, fmt.Errorf("gram: batch-commit returned %d results for %d jobs",
			len(resp.Results), len(jobIDs))
	}
	c.observeBatch("commit", len(jobIDs))
	out := make([]error, len(jobIDs))
	for i, r := range resp.Results {
		out[i] = entryErr(r.Error, r.Fault)
	}
	return out, nil
}

// BatchStatus probes several jobs at one site in one frame, addressed to
// the gatekeeper (the machine the site's JobManagers run on) instead of
// each job's JobManager connection.
func (c *Client) BatchStatus(gkAddr string, jobIDs []string) ([]BatchStatusResult, error) {
	var resp batchStatusResp
	if err := c.guard(gkAddr, "batch-status", func() error {
		return c.gatekeeper(gkAddr).Call("jm.batch-status", batchIDsReq{JobIDs: jobIDs}, &resp)
	}); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(jobIDs) {
		return nil, fmt.Errorf("gram: batch-status returned %d results for %d jobs",
			len(resp.Results), len(jobIDs))
	}
	c.observeBatch("status", len(jobIDs))
	out := make([]BatchStatusResult, len(jobIDs))
	for i, r := range resp.Results {
		if r.Error != "" {
			out[i].Err = entryErr(r.Error, r.Fault)
			continue
		}
		out[i] = BatchStatusResult{Status: r.Status, JMAlive: r.JMAlive}
	}
	return out, nil
}

// BatchCancel kills several jobs at one site in one frame. One error slot
// per job ID (nil = cancelled or already terminal).
func (c *Client) BatchCancel(gkAddr string, jobIDs []string) ([]error, error) {
	var resp batchOpResp
	if err := c.guard(gkAddr, "batch-cancel", func() error {
		return c.gatekeeper(gkAddr).Call("jm.batch-cancel", batchIDsReq{JobIDs: jobIDs}, &resp)
	}); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(jobIDs) {
		return nil, fmt.Errorf("gram: batch-cancel returned %d results for %d jobs",
			len(resp.Results), len(jobIDs))
	}
	c.observeBatch("cancel", len(jobIDs))
	out := make([]error, len(jobIDs))
	for i, r := range resp.Results {
		out[i] = entryErr(r.Error, r.Fault)
	}
	return out, nil
}
