package gram

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"condorg/internal/faultclass"
	"condorg/internal/gass"
	"condorg/internal/gsi"
	"condorg/internal/journal"
	"condorg/internal/lrm"
	"condorg/internal/wire"
)

// Service names for auth-context binding.
const (
	GatekeeperService = "gram-gatekeeper"
	JobManagerService = "gram-jobmanager"
)

// DefaultCommitTimeout bounds how long an uncommitted submission survives
// before the site discards it (phase two of the two-phase commit never
// arrived, e.g. the client crashed between phases).
const DefaultCommitTimeout = 30 * time.Second

// SiteConfig configures a grid execution site (the right half of Fig. 1).
type SiteConfig struct {
	// Name identifies the site in logs and resource ads.
	Name string
	// Anchor is the trusted CA; nil disables authentication.
	Anchor *gsi.Certificate
	// Gridmap authorizes grid subjects; nil allows all authenticated
	// subjects (mapped to "nobody").
	Gridmap *gsi.Gridmap
	// CapabilityIssuer, when set, enables the §3.2 capability extension:
	// a subject absent from the gridmap is still authorized when its
	// request carries a "gram:submit" capability signed by this pinned
	// certificate (the site administrator).
	CapabilityIssuer *gsi.Certificate
	// Cluster is the local resource manager behind the Gatekeeper.
	Cluster *lrm.Cluster
	// Runtime executes staged programs.
	Runtime Runtime
	// StateDir is the site's stable storage for job records.
	StateDir string
	// Clock for auth decisions; defaults to wall time.
	Clock gsi.Clock
	// CommitTimeout overrides DefaultCommitTimeout.
	CommitTimeout time.Duration
	// GatekeeperAddr pins the Gatekeeper to an explicit address so a
	// fully restarted site comes back where clients expect it. Empty
	// selects a fresh loopback port.
	GatekeeperAddr string
	// AutoCommit disables the two-phase commit: jobs start the moment
	// the submit request is processed, as in pre-GRAM-2. Exists ONLY for
	// ablation A1, which demonstrates the duplicate executions this
	// causes under message loss.
	AutoCommit bool
	// GatekeeperFaults and JobManagerFaults inject protocol failures.
	GatekeeperFaults *wire.Faults
	JobManagerFaults *wire.Faults
}

// Site is one administrative domain: Gatekeeper + JobManagers + LRM.
type Site struct {
	cfg   SiteConfig
	store *journal.Store
	stage *stageCache

	mu      sync.Mutex
	gk      *wire.Server
	gkAddr  string // stable across restarts
	jobs    map[string]*siteJob
	bySubID map[string]*siteJob // jobs by SubmissionID: gram.submit's dedup lookup
	serial  int
	crashed bool
	closing bool // Close in progress: LRM kills are site-lost, not failures
}

func (s *Site) isClosing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closing
}

// siteJob is the server-side job record. Its persistent core (persistJob)
// survives Gatekeeper crashes via the journal store.
type siteJob struct {
	mu           sync.Mutex
	id           string
	submissionID string
	owner        string // grid subject
	localUser    string
	spec         JobSpec
	committed    bool
	lrmID        string
	callback     string // client callback address
	cred         *gsi.Credential
	jm           *JobManager
	status       StatusInfo
	stdout       outBuffer
	stderr       outBuffer
	commitTimer  *time.Timer
	// kick wakes the job's JobManager (see wake). Buffered so a nudge
	// raised while the daemon is busy pushing is not lost.
	kick chan struct{}
}

// wake nudges whichever JobManager is serving the job: output was written,
// the job changed state, or the client learned how it ended. Lock-free — the
// payload's writes must not queue behind job.mu — and non-blocking: a
// pending nudge is enough.
func (j *siteJob) wake() {
	select {
	case j.kick <- struct{}{}:
	default:
	}
}

type persistJob struct {
	ID           string           `json:"id"`
	SubmissionID string           `json:"submission_id"`
	Owner        string           `json:"owner"`
	LocalUser    string           `json:"local_user"`
	Spec         JobSpec          `json:"spec"`
	Committed    bool             `json:"committed"`
	LrmID        string           `json:"lrm_id"`
	Callback     string           `json:"callback"`
	State        JobState         `json:"state"`
	Error        string           `json:"error,omitempty"`
	Fault        faultclass.Class `json:"fault_class,omitempty"`
}

// outBuffer accumulates a job output stream and tracks how much has been
// pushed to the client's GASS server.
type outBuffer struct {
	mu   sync.Mutex
	data []byte
	sent int64
	wake func() // called after every Write; set before the job can run
}

func (b *outBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	b.data = append(b.data, p...)
	b.mu.Unlock()
	if b.wake != nil {
		b.wake()
	}
	return len(p), nil
}

func (b *outBuffer) unsent() ([]byte, int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.data[b.sent:]...), b.sent
}

func (b *outBuffer) markSent(n int64) {
	b.mu.Lock()
	b.sent += n
	b.mu.Unlock()
}

func (b *outBuffer) sentBytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sent
}

// NewSite starts a site: Gatekeeper listening on a fresh port, job records
// recovered from StateDir if present.
func NewSite(cfg SiteConfig) (*Site, error) {
	if cfg.Cluster == nil {
		return nil, errors.New("gram: site needs a cluster")
	}
	if cfg.Runtime == nil {
		return nil, errors.New("gram: site needs a runtime")
	}
	if cfg.Clock == nil {
		cfg.Clock = gsi.WallClock
	}
	if cfg.CommitTimeout == 0 {
		cfg.CommitTimeout = DefaultCommitTimeout
	}
	store, err := journal.OpenStore(filepath.Join(cfg.StateDir, "site-jobs"))
	if err != nil {
		return nil, err
	}
	stage, err := newStageCache(filepath.Join(cfg.StateDir, "stage-cache"))
	if err != nil {
		store.Close()
		return nil, err
	}
	s := &Site{cfg: cfg, store: store, stage: stage,
		jobs: make(map[string]*siteJob), bySubID: make(map[string]*siteJob)}
	if err := s.recover(); err != nil {
		return nil, err
	}
	addr := cfg.GatekeeperAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	if err := s.startGatekeeper(addr); err != nil {
		return nil, err
	}
	return s, nil
}

// recover loads persisted job records (no JobManagers are started; the
// client requests restarts per the protocol).
func (s *Site) recover() error {
	return s.store.ForEach(func(key string, raw json.RawMessage) error {
		var p persistJob
		if err := json.Unmarshal(raw, &p); err != nil {
			return err
		}
		job := &siteJob{
			id:           p.ID,
			submissionID: p.SubmissionID,
			owner:        p.Owner,
			localUser:    p.LocalUser,
			spec:         p.Spec,
			committed:    p.Committed,
			lrmID:        p.LrmID,
			callback:     p.Callback,
			status: StatusInfo{
				JobID: p.ID, State: p.State, Error: p.Error, Fault: p.Fault, LocalUser: p.LocalUser,
			},
			kick: make(chan struct{}, 1),
		}
		s.jobs[p.ID] = job
		if p.SubmissionID != "" {
			s.bySubID[p.SubmissionID] = job
		}
		// Restore the ID counter past every recovered job: a restarted
		// site must never re-issue an ID, or the new submission would
		// overwrite the recovered record and clients probing the old
		// incarnation would silently read another job's status.
		if n := parseJobSerial(p.ID, s.cfg.Name); n > s.serial {
			s.serial = n
		}
		if p.Committed && !p.State.Terminal() {
			// A job that died mid-staging (no LRM handle yet) is gone:
			// the staging goroutine did not survive the restart, so it
			// would sit in stage-in forever. One that did reach the LRM
			// outlived the Gatekeeper crash only within one process
			// lifetime; across a true restart the cluster is fresh and
			// the job is gone. Reconcile both as site-lost — neither
			// ran to completion, so resubmission cannot double-execute.
			lost := p.LrmID == ""
			if !lost {
				if _, err := s.cfg.Cluster.Status(p.LrmID); err != nil {
					lost = true
				}
			}
			if lost {
				job.status.State = StateFailed
				job.status.Error = "lost by site restart"
				job.status.Fault = faultclass.SiteLost
				s.persist(job)
			}
		}
		return nil
	})
}

// parseJobSerial extracts N from a "<name>-jobN" identifier (0 when the ID
// has a different shape).
func parseJobSerial(id, name string) int {
	prefix := name + "-job"
	if len(id) <= len(prefix) || id[:len(prefix)] != prefix {
		return 0
	}
	n := 0
	for _, c := range id[len(prefix):] {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func (s *Site) persist(job *siteJob) {
	job.mu.Lock()
	defer job.mu.Unlock()
	p := persistJob{
		ID:           job.id,
		SubmissionID: job.submissionID,
		Owner:        job.owner,
		LocalUser:    job.localUser,
		Spec:         job.spec,
		Committed:    job.committed,
		LrmID:        job.lrmID,
		Callback:     job.callback,
		State:        job.status.State,
		Error:        job.status.Error,
		Fault:        job.status.Fault,
	}
	// A put can fail benignly when the site is shutting down (the store
	// closes while an LRM watcher delivers a final transition); that
	// state is lost with the site anyway.
	_ = s.store.Put(job.id, p)
}

func (s *Site) startGatekeeper(addr string) error {
	gk, err := wire.NewServerAddr(addr, wire.ServerConfig{
		Name:   GatekeeperService,
		Anchor: s.cfg.Anchor,
		Clock:  s.cfg.Clock,
		Faults: s.cfg.GatekeeperFaults,
	})
	if err != nil {
		return err
	}
	gk.Handle("gram.ping", func(string, json.RawMessage) (any, error) { return struct{}{}, nil })
	gk.Handle("gram.submit", s.handleSubmit)
	gk.Handle("gram.commit", s.handleCommit)
	gk.Handle("gram.jm-restart", s.handleJMRestart)
	gk.Handle("gram.stage-check", s.handleStageCheck)
	gk.HandleBlob("gram.stage-chunk", s.handleStageChunk)
	gk.Handle("gram.stage-commit", s.handleStageCommit)
	gk.Handle("gram.batch-submit", s.handleBatchSubmit)
	gk.Handle("gram.batch-commit", s.handleBatchCommit)
	// The batched JobManager verbs live on the Gatekeeper because it is
	// the interface machine every JobManager of the site runs on: one
	// frame reaches all of them.
	gk.Handle("jm.batch-status", s.handleBatchStatus)
	gk.Handle("jm.batch-cancel", s.handleBatchCancel)
	s.mu.Lock()
	s.gk = gk
	s.gkAddr = gk.Addr()
	s.crashed = false
	s.mu.Unlock()
	return nil
}

// GatekeeperAddr returns the published contact address.
func (s *Site) GatekeeperAddr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gkAddr
}

// Name returns the site name.
func (s *Site) Name() string { return s.cfg.Name }

// Cluster exposes the LRM (resource ads need queue depth etc.).
func (s *Site) Cluster() *lrm.Cluster { return s.cfg.Cluster }

// countJobs counts the jobs pred holds for; pred runs with the job locked.
func (s *Site) countJobs(pred func(*siteJob) bool) int {
	s.mu.Lock()
	jobs := make([]*siteJob, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	n := 0
	for _, j := range jobs {
		j.mu.Lock()
		if pred(j) {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

// ActiveJobs counts jobs that have not reached a terminal state. Glidein
// pilots use it as the idle signal for §5's runaway-daemon guard.
func (s *Site) ActiveJobs() int {
	return s.countJobs(func(j *siteJob) bool { return !j.status.State.Terminal() })
}

// LiveJobManagers counts the JobManager daemons currently running on the
// interface machine: one per job from submit until the job is over and the
// client knows it (see JobManager).
func (s *Site) LiveJobManagers() int {
	return s.countJobs(func(j *siteJob) bool { return j.jm != nil })
}

// authorize maps a peer subject through the gridmap.
func (s *Site) authorize(peer string) (string, error) {
	if s.cfg.Anchor == nil {
		return "anonymous", nil
	}
	if s.cfg.Gridmap == nil {
		return "nobody", nil
	}
	return s.cfg.Gridmap.LocalUser(peer)
}

type submitReq struct {
	SubmissionID string  `json:"submission_id"`
	Spec         JobSpec `json:"spec"`
	Callback     string  `json:"callback,omitempty"`
	// Delegated is the serialized proxy forwarded to the site (§4.3).
	Delegated []byte `json:"delegated,omitempty"`
	// Capability is an optional serialized authorization grant (§3.2
	// capability extension) for subjects outside the gridmap.
	Capability []byte `json:"capability,omitempty"`
}

type submitResp struct {
	JobID          string `json:"job_id"`
	JobManagerAddr string `json:"jobmanager_addr"`
}

func (s *Site) handleSubmit(peer string, body json.RawMessage) (any, error) {
	var req submitReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	return s.submitOne(peer, req)
}

// submitOne runs a single submission through authorization, SubmissionID
// dedup, and JobManager startup. It is the shared core of gram.submit and
// each entry of gram.batch-submit.
func (s *Site) submitOne(peer string, req submitReq) (submitResp, error) {
	localUser, err := s.authorize(peer)
	if err != nil {
		// Gridmap refused: a capability signed by the site
		// administrator may still authorize this request.
		if s.cfg.CapabilityIssuer == nil || len(req.Capability) == 0 {
			return submitResp{}, err
		}
		cap, decErr := gsi.DecodeCapability(req.Capability)
		if decErr != nil {
			return submitResp{}, fmt.Errorf("gram: bad capability: %w", decErr)
		}
		localUser, err = cap.Verify(s.cfg.CapabilityIssuer, peer, "gram:submit", s.cfg.Clock())
		if err != nil {
			return submitResp{}, fmt.Errorf("gram: capability: %w", err)
		}
	}
	var cred *gsi.Credential
	if len(req.Delegated) > 0 {
		cred, err = gsi.DecodeCredential(req.Delegated)
		if err != nil {
			return submitResp{}, fmt.Errorf("gram: bad delegated credential: %w", err)
		}
		if err := s.checkDelegated(cred); err != nil {
			return submitResp{}, err
		}
	}

	s.mu.Lock()
	// Exactly-once across Gatekeeper restarts: a resent submission with a
	// known SubmissionID returns the existing job instead of a new one.
	if existing, ok := s.bySubID[req.SubmissionID]; ok && req.SubmissionID != "" {
		s.mu.Unlock()
		existing.mu.Lock()
		defer existing.mu.Unlock()
		addr := ""
		if existing.jm != nil {
			addr = existing.jm.Addr()
		}
		return submitResp{JobID: existing.id, JobManagerAddr: addr}, nil
	}
	s.serial++
	id := fmt.Sprintf("%s-job%d", s.cfg.Name, s.serial)
	job := &siteJob{
		id:           id,
		submissionID: req.SubmissionID,
		owner:        peer,
		localUser:    localUser,
		spec:         req.Spec,
		callback:     req.Callback,
		cred:         cred,
		status:       StatusInfo{JobID: id, State: StateUnsubmitted, LocalUser: localUser},
		kick:         make(chan struct{}, 1),
	}
	job.stdout.wake = job.wake
	job.stderr.wake = job.wake
	s.jobs[id] = job
	if req.SubmissionID != "" {
		s.bySubID[req.SubmissionID] = job
	}
	s.mu.Unlock()

	jm, err := s.startJobManager(job)
	if err != nil {
		return submitResp{}, err
	}
	if s.cfg.AutoCommit {
		// Ablation A1: no second phase — execution commences now.
		job.mu.Lock()
		job.committed = true
		job.status.State = StateStageIn
		job.mu.Unlock()
		s.persist(job)
		go s.stageAndSubmit(job)
	} else {
		job.mu.Lock()
		job.commitTimer = time.AfterFunc(s.cfg.CommitTimeout, func() { s.expireUncommitted(id) })
		job.mu.Unlock()
		s.persist(job)
	}
	return submitResp{JobID: id, JobManagerAddr: jm.Addr()}, nil
}

// checkDelegated vets a proxy forwarded to this site: the chain must
// verify against the trust anchor (when one is configured) and any
// delegation scope in the chain must name this gatekeeper. A proxy minted
// for another site is refused with a Permanent fault — retrying cannot
// change the verdict, and classifying it Transient would burn the
// submitter's retry budget against a correctness rejection.
func (s *Site) checkDelegated(cred *gsi.Credential) error {
	self := s.GatekeeperAddr()
	if s.cfg.Anchor != nil {
		if _, err := gsi.VerifyChainAt(cred.Chain, s.cfg.Anchor, self, s.cfg.Clock()); err != nil {
			if errors.Is(err, gsi.ErrScope) {
				return faultclass.New(faultclass.Permanent, fmt.Errorf("gram: delegated credential: %w", err))
			}
			return fmt.Errorf("gram: delegated credential: %w", err)
		}
		return nil
	}
	// Open (anchorless) grids still honor the restriction: the scope is a
	// statement of intent by the delegator, meaningful without a PKI.
	if err := gsi.CheckScope(cred.Chain, self); err != nil {
		return faultclass.New(faultclass.Permanent, fmt.Errorf("gram: delegated credential: %w", err))
	}
	return nil
}

// expireUncommitted discards a submission whose commit never arrived.
func (s *Site) expireUncommitted(id string) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return
	}
	job.mu.Lock()
	if job.committed {
		job.mu.Unlock()
		return
	}
	job.status.State = StateFailed
	job.status.Error = "commit timeout: two-phase commit never completed"
	job.status.Fault = faultclass.SiteLost
	jm := job.jm
	job.jm = nil
	job.mu.Unlock()
	if jm != nil {
		jm.Close()
	}
	s.persist(job)
}

type commitReq struct {
	JobID string `json:"job_id"`
}

func (s *Site) handleCommit(peer string, body json.RawMessage) (any, error) {
	var req commitReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	if err := s.commitOne(peer, req.JobID); err != nil {
		return nil, err
	}
	return struct{}{}, nil
}

// commitOne completes phase two for one job. Shared core of gram.commit
// and each entry of gram.batch-commit.
func (s *Site) commitOne(peer, jobID string) error {
	s.mu.Lock()
	job, ok := s.jobs[jobID]
	s.mu.Unlock()
	if !ok {
		// The site has no record of the job (e.g. it died before the
		// submission was persisted): it can never run here.
		return faultclass.New(faultclass.SiteLost,
			fmt.Errorf("gram: commit for unknown job %q", jobID))
	}
	if s.cfg.Anchor != nil && job.owner != peer {
		return fmt.Errorf("gram: job %s belongs to %s", jobID, job.owner)
	}
	job.mu.Lock()
	if job.committed {
		job.mu.Unlock()
		return nil // idempotent
	}
	if job.status.State == StateFailed {
		err := job.status.Error
		job.mu.Unlock()
		return fmt.Errorf("gram: job %s already failed: %s", jobID, err)
	}
	job.committed = true
	if job.commitTimer != nil {
		job.commitTimer.Stop()
	}
	job.status.State = StateStageIn
	job.mu.Unlock()
	s.persist(job)
	go s.stageAndSubmit(job)
	return nil
}

type jmRestartReq struct {
	JobID string `json:"job_id"`
}

type jmRestartResp struct {
	JobManagerAddr string `json:"jobmanager_addr"`
}

func (s *Site) handleJMRestart(peer string, body json.RawMessage) (any, error) {
	var req jmRestartReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	s.mu.Lock()
	job, ok := s.jobs[req.JobID]
	s.mu.Unlock()
	if !ok {
		// No record of the job survived on this site; tell the client it
		// is definitively lost here so it can resubmit.
		return nil, faultclass.New(faultclass.SiteLost,
			fmt.Errorf("gram: restart for unknown job %q", req.JobID))
	}
	if s.cfg.Anchor != nil && job.owner != peer {
		return nil, fmt.Errorf("gram: job %s belongs to %s", req.JobID, job.owner)
	}
	job.mu.Lock()
	if job.jm != nil {
		addr := job.jm.Addr()
		job.mu.Unlock()
		return jmRestartResp{JobManagerAddr: addr}, nil // still alive
	}
	job.mu.Unlock()
	jm, err := s.startJobManager(job)
	if err != nil {
		return nil, err
	}
	return jmRestartResp{JobManagerAddr: jm.Addr()}, nil
}

// stageAndSubmit performs stage-in through GASS and hands the job to the
// LRM. Runs outside any lock.
func (s *Site) stageAndSubmit(job *siteJob) {
	job.mu.Lock()
	spec := job.spec
	cred := job.cred
	job.mu.Unlock()

	gc := gass.NewClient(cred, s.cfg.Clock)
	defer gc.Close()

	// Failures before the LRM accepts the job mean it never ran here, so
	// the submitter may safely run it elsewhere (SiteLost) — except an
	// expired credential, which must surface as AuthExpired so the agent
	// holds the job for a refresh instead of burning resubmissions.
	fail := func(err error) {
		job.mu.Lock()
		job.status.State = StateFailed
		job.status.Error = err.Error()
		job.status.Fault = stageFaultClass(err)
		job.mu.Unlock()
		s.persist(job)
		s.notifyStatus(job)
	}

	execData, err := s.stageIn(gc, spec.Executable, spec.ExecutableHash)
	if err != nil {
		fail(fmt.Errorf("stage-in executable: %w", err))
		return
	}
	var stdin []byte
	if spec.Stdin != "" {
		stdin, err = s.stageIn(gc, spec.Stdin, "")
		if err != nil {
			fail(fmt.Errorf("stage-in stdin: %w", err))
			return
		}
	}

	lrmID, err := s.cfg.Cluster.Submit(lrm.Job{
		ID:        job.id + ".lrm",
		Owner:     job.localUser,
		Cpus:      spec.Cpus,
		WallLimit: spec.WallLimit,
		Run: func(ctx context.Context) error {
			env := map[string]string{}
			for k, v := range spec.Env {
				env[k] = v
			}
			if spec.GassURLFile != "" {
				env["GASS_URL_FILE"] = spec.GassURLFile
			}
			return s.cfg.Runtime.Run(ctx, execData, spec.Args, stdin, &job.stdout, &job.stderr, env)
		},
	}, spec.Estimate)
	if err != nil {
		fail(fmt.Errorf("lrm submit: %w", err))
		return
	}
	job.mu.Lock()
	job.lrmID = lrmID
	job.status.State = StatePending
	job.mu.Unlock()
	s.persist(job)
	s.notifyStatus(job)
	go s.watchLRM(job, lrmID)
}

// stageFaultClass classifies a stage-in failure. AuthExpired passes
// through (the client must refresh its proxy — resubmitting elsewhere with
// the same dead credential cannot help); everything else is SiteLost, since
// the job never reached this site's LRM.
func stageFaultClass(err error) faultclass.Class {
	if faultclass.ClassOf(err) == faultclass.AuthExpired {
		return faultclass.AuthExpired
	}
	return faultclass.SiteLost
}

// stageIn fetches a GASS URL through the site's content-addressed
// executable cache, or treats the string as inline program text when it has
// no URL scheme (used by tests and GlideIn bootstrap). A non-empty hash is
// the sha256 content address: a cache hit skips the transfer entirely, and
// a miss verifies the pulled bytes against the hash before caching them, so
// a job can never poison the cache entry of another program that shares its
// name.
func (s *Site) stageIn(gc *gass.Client, ref, hash string) ([]byte, error) {
	u, err := gass.ParseURL(ref)
	if err != nil {
		return []byte(ref), nil
	}
	if hash != "" {
		if data, ok := s.stage.get(hash); ok {
			s.stage.hits.Add(1)
			return data, nil
		}
		s.stage.misses.Add(1)
	}
	data, err := s.pullResumable(gc, u)
	if err != nil {
		return nil, err
	}
	if hash != "" {
		if got := HashExecutable(data); got != hash {
			return nil, fmt.Errorf("gram: staged bytes hash %s, client claimed %s", got[:12], hash[:12])
		}
		// Best-effort: a full cache disk never fails the job.
		_ = s.stage.put(hash, data)
	}
	return data, nil
}

// pullResumable reads a whole GASS file, preserving the byte offset across
// transport errors: a connection reset mid-transfer resumes from the last
// received chunk instead of restarting from zero. Remote application errors
// (the server answered; retrying cannot change the answer) return
// immediately.
func (s *Site) pullResumable(gc *gass.Client, u gass.URL) ([]byte, error) {
	const maxAttempts = 8
	var out []byte
	var off int64
	attempts := 0
	for {
		data, eof, err := gc.ReadAt(u, off, gass.ChunkSize)
		if err != nil {
			if wire.IsRemote(err) {
				return nil, err
			}
			attempts++
			if attempts >= maxAttempts {
				return nil, err
			}
			gc.Forget(u.Addr)
			time.Sleep(5 * time.Millisecond)
			continue
		}
		attempts = 0
		out = append(out, data...)
		off += int64(len(data))
		if eof || len(data) == 0 {
			return out, nil
		}
	}
}

// watchLRM mirrors the LRM job's transitions into the GRAM status until it
// is terminal, sleeping in the cluster's per-job state-change wait between
// them (how a real JobManager watches PBS, minus the polling interval).
func (s *Site) watchLRM(job *siteJob, lrmID string) {
	st, err := s.cfg.Cluster.Status(lrmID)
	for ; err == nil; st, err = s.cfg.Cluster.WaitChange(lrmID, st.State) {
		job.mu.Lock()
		var newState JobState
		switch st.State {
		case lrm.Queued:
			newState = StatePending
		case lrm.Running:
			newState = StateActive
		case lrm.Completed:
			newState = StateDone
		default: // Failed, Cancelled, TimedOut
			newState = StateFailed
			if st.State == lrm.Cancelled && s.isClosing() {
				// The site is going down, not the job: whatever the
				// LRM kills during shutdown is lost with the site and
				// safe to run elsewhere.
				if job.status.Error == "" {
					job.status.Error = "lost by site restart"
				}
				job.status.Fault = faultclass.SiteLost
			} else {
				if job.status.Error == "" {
					job.status.Error = st.State.String()
					if st.Error != "" {
						job.status.Error = st.Error
					}
				}
				// The job itself failed at a healthy site: retrying
				// elsewhere cannot change the verdict.
				if job.status.Fault == faultclass.Unknown {
					job.status.Fault = faultclass.Permanent
				}
			}
		}
		changed := newState != job.status.State
		job.status.State = newState
		job.status.ExitOK = st.State == lrm.Completed
		job.mu.Unlock()
		if changed {
			s.persist(job)
			s.notifyStatus(job)
		}
		if newState.Terminal() {
			return
		}
	}
}

// notifyStatus sends a status callback through the job's JobManager, if one
// is alive. Lost callbacks are fine: the GridManager also probes.
func (s *Site) notifyStatus(job *siteJob) {
	job.mu.Lock()
	jm := job.jm
	st := job.status
	job.mu.Unlock()
	if jm != nil {
		jm.sendCallback(st)
		job.wake() // a terminal state may be the last thing it was waiting for
	}
}

// --- crash and partition injection (the §4.2 failure matrix) ---

// CrashJobManager kills only the JobManager process of a job; the LRM job
// keeps running (failure type 1).
func (s *Site) CrashJobManager(jobID string) error {
	s.mu.Lock()
	job, ok := s.jobs[jobID]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("gram: no such job %q", jobID)
	}
	job.mu.Lock()
	jm := job.jm
	job.jm = nil
	job.mu.Unlock()
	if jm == nil {
		return errors.New("gram: jobmanager already down")
	}
	jm.Close()
	return nil
}

// CrashGatekeeperMachine simulates failure type 2: the interface machine
// hosting the Gatekeeper and every JobManager dies. Jobs already inside
// the LRM keep running.
func (s *Site) CrashGatekeeperMachine() {
	s.mu.Lock()
	gk := s.gk
	s.gk = nil
	s.crashed = true
	jobs := make([]*siteJob, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	if gk != nil {
		gk.Close()
	}
	for _, job := range jobs {
		job.mu.Lock()
		jm := job.jm
		job.jm = nil
		job.mu.Unlock()
		if jm != nil {
			jm.Close()
		}
	}
}

// RestartGatekeeperMachine brings the Gatekeeper back on its old address.
// JobManagers stay down until the client requests restarts.
func (s *Site) RestartGatekeeperMachine() error {
	s.mu.Lock()
	if !s.crashed {
		s.mu.Unlock()
		return errors.New("gram: gatekeeper is not down")
	}
	addr := s.gkAddr
	s.mu.Unlock()
	return s.startGatekeeper(addr)
}

// Partition severs and refuses all connections to the site until Heal —
// indistinguishable, from the client side, from a machine crash (the paper
// notes the GridManager cannot tell these apart).
func (s *Site) Partition() {
	s.mu.Lock()
	gk := s.gk
	jobs := make([]*siteJob, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	if gk != nil {
		gk.Pause()
	}
	for _, job := range jobs {
		job.mu.Lock()
		jm := job.jm
		job.mu.Unlock()
		if jm != nil {
			jm.srv.Pause()
		}
	}
}

// Heal ends a Partition.
func (s *Site) Heal() {
	s.mu.Lock()
	gk := s.gk
	jobs := make([]*siteJob, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	if gk != nil {
		gk.Resume()
	}
	for _, job := range jobs {
		job.mu.Lock()
		jm := job.jm
		job.mu.Unlock()
		if jm != nil {
			jm.srv.Resume()
		}
	}
}

// Close shuts the whole site down.
func (s *Site) Close() {
	s.mu.Lock()
	s.closing = true
	gk := s.gk
	s.gk = nil
	jobs := make([]*siteJob, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	if gk != nil {
		gk.Close()
	}
	for _, job := range jobs {
		job.mu.Lock()
		jm := job.jm
		job.jm = nil
		if job.commitTimer != nil {
			job.commitTimer.Stop()
		}
		job.mu.Unlock()
		if jm != nil {
			jm.Close()
		}
	}
	s.cfg.Cluster.Close()
	s.stage.close()
	s.store.Close()
}
