// Package gram implements the Grid Resource Allocation and Management
// protocol of §3.2, including the two revisions the paper contributed
// toward GRAM-2: two-phase commit for exactly-once execution semantics and
// restartable JobManagers for resource-side fault tolerance.
//
// A site runs one Gatekeeper (authentication, authorization, JobManager
// factory). Each committed job gets a JobManager that stages files through
// GASS, submits to the site's local resource manager, relays status
// callbacks to the submitting client, and streams stdout/stderr back.
package gram

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"condorg/internal/faultclass"
)

// JobState is the GRAM-visible state of a job.
type JobState int

const (
	// StateUnsubmitted: phase one of the two-phase commit has completed
	// but the commit has not arrived.
	StateUnsubmitted JobState = iota
	// StateStageIn: the JobManager is transferring the executable and
	// stdin from the client's GASS server.
	StateStageIn
	// StatePending: queued in the site's local scheduler.
	StatePending
	// StateActive: running.
	StateActive
	// StateDone: completed successfully.
	StateDone
	// StateFailed: the job or its staging failed.
	StateFailed
)

// String names the state as logs and status output print it.
func (s JobState) String() string {
	switch s {
	case StateUnsubmitted:
		return "unsubmitted"
	case StateStageIn:
		return "stage-in"
	case StatePending:
		return "pending"
	case StateActive:
		return "active"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	}
	return "unknown"
}

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool { return s == StateDone || s == StateFailed }

// JobSpec describes a remote computational request ("run program P").
type JobSpec struct {
	// Executable is a GASS URL (gass://host:port/path) from which the
	// site stages the program, or a site-local identifier understood by
	// the site's Runtime when no URL scheme is present.
	Executable string `json:"executable"`
	// Args are program arguments.
	Args []string `json:"args,omitempty"`
	// Stdin is an optional GASS URL staged as standard input.
	Stdin string `json:"stdin,omitempty"`
	// StdoutURL and StderrURL, when set, receive real-time appends of the
	// job's output streams.
	StdoutURL string `json:"stdout_url,omitempty"`
	StderrURL string `json:"stderr_url,omitempty"`
	// Env is the job environment.
	Env map[string]string `json:"env,omitempty"`
	// Cpus requested from the local scheduler (default 1).
	Cpus int `json:"cpus,omitempty"`
	// WallLimit is enforced by the local scheduler (0 = site default).
	WallLimit time.Duration `json:"wall_limit,omitempty"`
	// Estimate is the user's runtime estimate, used by backfill policies.
	Estimate time.Duration `json:"estimate,omitempty"`
	// GassURLFile is the site-relative path of the URL file that tells a
	// running job where the client's GASS server lives (§4.2).
	GassURLFile string `json:"gass_url_file,omitempty"`
	// ExecutableHash is the sha256 (lowercase hex) of the staged executable
	// bytes. When set it keys the site's content-addressed executable
	// cache: a committed job whose hash is already cached skips the GASS
	// pull entirely, and a client may pre-stage the bytes through the
	// stage.check/chunk/commit gatekeeper ops before submitting.
	ExecutableHash string `json:"executable_hash,omitempty"`
}

// JobContact identifies a submitted job: the site's Gatekeeper address plus
// the site-assigned job ID. It is the handle the GridManager journals; every
// verb that names the job, batched or not, goes to that Gatekeeper.
type JobContact struct {
	GatekeeperAddr string `json:"gatekeeper_addr"`
	JobID          string `json:"job_id"`
}

// String renders the contact as a stable identifier.
func (c JobContact) String() string {
	return fmt.Sprintf("gram://%s/%s", c.GatekeeperAddr, c.JobID)
}

// StatusInfo is a status report for a job.
type StatusInfo struct {
	JobID string `json:"job_id"`
	// GatekeeperAddr is set on pushed callbacks so the receiver can match
	// the report to the job's current remote incarnation: job IDs are only
	// unique per site, so a late callback from a cancelled incarnation at
	// one site could otherwise masquerade as the live one at another.
	GatekeeperAddr string   `json:"gatekeeper_addr,omitempty"`
	State          JobState `json:"state"`
	Error          string   `json:"error,omitempty"`
	// Fault classifies Error so the GridManager can choose a recovery
	// action (resubmit / retry / surface / hold) without parsing prose.
	Fault      faultclass.Class `json:"fault_class,omitempty"`
	ExitOK     bool             `json:"exit_ok"`
	StdoutSent int64            `json:"stdout_sent"` // bytes streamed so far
	StderrSent int64            `json:"stderr_sent"`
	LocalUser  string           `json:"local_user"`
}

// Runtime executes a staged job payload on the site. The live system uses
// FuncRuntime (jobs are registered Go functions, the moral equivalent of
// staged binaries); examples register domain workloads with it.
type Runtime interface {
	// Run executes the program. execData is the staged executable's
	// bytes; args, stdin, and the output writers mirror a Unix process.
	Run(ctx context.Context, execData []byte, args []string, stdin []byte, stdout, stderr io.Writer, env map[string]string) error
}

// FuncRuntime dispatches on the first line of the staged executable
// ("#!condor name"), executing a registered Go function. It stands in for
// arbitrary site binaries while keeping the full staging path honest: the
// bytes really do travel through GASS.
type FuncRuntime struct {
	mu    sync.RWMutex
	funcs map[string]JobFunc
}

// JobFunc is a registered program body.
type JobFunc func(ctx context.Context, args []string, stdin []byte, stdout, stderr io.Writer, env map[string]string) error

// NewFuncRuntime creates an empty runtime.
func NewFuncRuntime() *FuncRuntime {
	return &FuncRuntime{funcs: make(map[string]JobFunc)}
}

// Register binds a program name to a function.
func (r *FuncRuntime) Register(name string, fn JobFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// ProgramName extracts the program name from staged executable bytes.
func ProgramName(execData []byte) (string, error) {
	line := string(execData)
	if i := indexByte(line, '\n'); i >= 0 {
		line = line[:i]
	}
	const prefix = "#!condor "
	if len(line) <= len(prefix) || line[:len(prefix)] != prefix {
		return "", fmt.Errorf("gram: executable is not a '#!condor <name>' program")
	}
	return line[len(prefix):], nil
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// Program renders an executable blob for a registered program name.
func Program(name string) []byte { return []byte("#!condor " + name + "\n") }

// Run implements Runtime.
func (r *FuncRuntime) Run(ctx context.Context, execData []byte, args []string, stdin []byte, stdout, stderr io.Writer, env map[string]string) error {
	name, err := ProgramName(execData)
	if err != nil {
		return err
	}
	r.mu.RLock()
	fn, ok := r.funcs[name]
	r.mu.RUnlock()
	if !ok {
		return fmt.Errorf("gram: no such program %q on this site", name)
	}
	return fn(ctx, args, stdin, stdout, stderr, env)
}
