package main

// Harness-side bookkeeping: one monotonic clock, the per-job ledger the
// program body stamps, and the in-memory span log of the traced pass.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"condorg/internal/gram"
)

// clock reads nanoseconds since the run began, on the monotonic clock.
type clock struct{ base time.Time }

func newClock() *clock         { return &clock{base: time.Now()} }
func (c *clock) now() int64    { return int64(time.Since(c.base)) }
func ms(ns int64) float64      { return float64(ns) / 1e6 }
func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// job is one generated job and everything the harness observed about it.
// The client goroutine owns post/ack/done/id/err; the program body (a site
// goroutine) writes enter/exit/runs, hence the atomics.
type job struct {
	tag     string
	owner   int
	class   string // "" | "hit" | "miss" (staging)
	program string
	// label, when set, makes the executable a padded one whose content
	// (and so whose site-cache key) is unique to the label.
	label  string
	sample bool // fetch stdout and compare to the tag

	id              string
	via             int   // which of the client's doors carried it
	post, ack, done int64 // ns; 0 = did not happen
	// from, when set, replaces post as the start of the job's latency
	// (recovery counts from the agent restart).
	from int64
	err  string

	runs        atomic.Int32
	enter, exit atomic.Int64
	badExec     atomic.Bool
}

// execHead is the part of the job's executable that is its own: the
// "#!condor <program>" line, then the label.
func (j *job) execHead() []byte { return append(gram.Program(j.program), j.label...) }

// benchRuntime is the gram.Runtime every site runs. Jobs are keyed by the
// tag in Args[0]; the body stamps entry and exit, checks that the staged
// bytes are the ones submitted, and echoes the tag.
type benchRuntime struct {
	clock *clock
	// padding is the seeded filler every labelled executable shares past
	// its head; its length is the size of such an executable.
	padding []byte
	mu      sync.Mutex
	jobs    map[string]*job
	// gate, when non-nil, holds "gate" programs until it is closed.
	gate    chan struct{}
	unknown atomic.Int64 // bodies run for a tag nobody registered
}

func newRuntime(clk *clock, padding []byte) *benchRuntime {
	return &benchRuntime{clock: clk, padding: padding, jobs: map[string]*job{}}
}

// exec renders the bytes to submit for j.
func (r *benchRuntime) exec(j *job) []byte {
	head := j.execHead()
	if j.label == "" {
		return head
	}
	data := make([]byte, len(r.padding))
	copy(data, r.padding)
	copy(data, head)
	return data
}

// sameExec reports whether data is exactly what exec(j) rendered, without
// rendering it again.
func (r *benchRuntime) sameExec(j *job, data []byte) bool {
	head := j.execHead()
	if j.label == "" {
		return bytes.Equal(data, head)
	}
	return len(data) == len(r.padding) &&
		bytes.Equal(data[:len(head)], head) && bytes.Equal(data[len(head):], r.padding[len(head):])
}

func (r *benchRuntime) register(j *job) {
	r.mu.Lock()
	r.jobs[j.tag] = j
	r.mu.Unlock()
}

func (r *benchRuntime) setGate(g chan struct{}) {
	r.mu.Lock()
	r.gate = g
	r.mu.Unlock()
}

// Run implements gram.Runtime.
func (r *benchRuntime) Run(ctx context.Context, execData []byte, args []string, _ []byte, stdout, _ io.Writer, _ map[string]string) error {
	enter := r.clock.now()
	name, err := gram.ProgramName(execData)
	if err != nil {
		return err
	}
	if len(args) == 0 {
		return fmt.Errorf("bench: job without a tag")
	}
	r.mu.Lock()
	j := r.jobs[args[0]]
	gate := r.gate
	r.mu.Unlock()
	if j == nil {
		r.unknown.Add(1)
		return fmt.Errorf("bench: unknown job tag %q", args[0])
	}
	j.runs.Add(1)
	j.enter.Store(enter)
	if !r.sameExec(j, execData) {
		j.badExec.Store(true)
	}
	switch name {
	case "noop":
	case "gate":
		if gate != nil {
			select {
			case <-gate:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	default:
		return fmt.Errorf("bench: no such program %q", name)
	}
	fmt.Fprintln(stdout, j.tag)
	j.exit.Store(r.clock.now())
	return nil
}

// span is one harness-recorded interval: what, when, caused by which span,
// for which job. IDs are 1-based; Parent 0 is a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog is the
// untraced mode: add is a no-op.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(name string, start, end int64, parent int, job string) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Job: job, Start: start, End: end})
	l.mu.Unlock()
	return id
}

// waitUntil polls cond every millisecond until it holds or the timeout
// passes; it reports whether cond held.
func waitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}
