package obs

import "time"

// Trace phases — the vocabulary of the per-job timeline. Each constant
// names one kind of lifecycle transition; DESIGN.md §6 is the catalogue.
const (
	PhaseSubmit        = "submit"         // accepted into the agent queue
	PhaseDispatch      = "dispatch"       // handed to a per-site pipeline worker
	PhaseGridSubmit    = "grid-submit"    // GRAM submit RPC returned a contact
	PhaseCommit        = "commit"         // GRAM two-phase commit completed
	PhaseCommitRetry   = "commit-retry"   // commit failed; job requeued for recovery
	PhaseSubmitRetry   = "submit-retry"   // grid submit failed; will retry
	PhasePending       = "pending"        // remote reports queued in the LRM
	PhaseActive        = "active"         // remote reports running
	PhaseDone          = "done"           // remote reports completed
	PhaseFailed        = "failed"         // job reached Failed
	PhaseRemoteFailure = "remote-failure" // site reported the job failed (Class set)
	PhaseFault         = "fault"          // classified fault observed (Class set)
	PhaseResubmit      = "resubmit"       // new submission after a fault
	PhaseMigrate       = "migrate"        // proactive move off a slow site
	PhaseHold          = "hold"           // placed on hold
	PhaseRelease       = "release"        // released from hold
	PhaseRemove        = "remove"         // removed by the user
	PhaseDisconnect    = "disconnect"     // probe lost contact with the job manager
	PhaseReconnect     = "reconnect"      // probe re-established contact
	PhaseJMRestart     = "jm-restart"     // gatekeeper restarted the job manager
	PhaseRecover       = "recover"        // agent restart reloaded this job
	PhaseCancelAck     = "cancel-ack"     // site acknowledged a cancel tombstone
	PhaseStage         = "stage"          // executable pre-staging progress (resume offsets in Detail)
	PhaseBind          = "bind"           // deferred/elastic binding chose (or changed) the target site
	PhaseCredRefresh   = "cred-refresh"   // refreshed credential re-delegated in-band to the job manager
)

// TraceEvent is one entry of a job's lifecycle timeline.
type TraceEvent struct {
	Seq    int       `json:"seq"`             // position in the timeline
	Wall   time.Time `json:"wall"`            // wall-clock time of the transition
	Phase  string    `json:"phase"`           // one of the Phase* constants
	Site   string    `json:"site,omitempty"`  // gatekeeper address at event time
	Class  string    `json:"class,omitempty"` // faultclass name for fault-ish events
	Detail string    `json:"detail,omitempty"`
}

// Timeline is a job's lifecycle timeline, oldest event first.
type Timeline struct {
	Events []TraceEvent `json:"events,omitempty"`
}
