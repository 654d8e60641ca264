package gram

import (
	"testing"
	"time"

	"condorg/internal/faultclass"
)

// One batch-submit + one batch-commit must carry N jobs through the
// two-phase commit, in order, and every job must run to completion.
func TestBatchSubmitCommitRoundTrip(t *testing.T) {
	g := newTestGrid(t)
	exe := g.stageProgram(t, "echo")
	const n = 5
	entries := make([]BatchSubmitEntry, n)
	for i := range entries {
		entries[i] = BatchSubmitEntry{
			Spec: JobSpec{Executable: exe},
			Opts: SubmitOptions{SubmissionID: NewSubmissionID()},
		}
	}
	gk := g.site.GatekeeperAddr()
	results, err := g.client.BatchSubmit(gk, entries)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, n)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("entry %d: %v", i, r.Err)
		}
		if r.Contact.JobID == "" || r.Contact.GatekeeperAddr != gk {
			t.Fatalf("entry %d: bad contact %+v", i, r.Contact)
		}
		ids[i] = r.Contact.JobID
	}
	cerrs, err := g.client.BatchCommit(gk, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range cerrs {
		if e != nil {
			t.Fatalf("commit entry %d: %v", i, e)
		}
	}
	deadline := time.Now().Add(8 * time.Second)
	for {
		sts, err := g.client.BatchStatus(gk, ids)
		if err != nil {
			t.Fatal(err)
		}
		done := 0
		for i, st := range sts {
			if st.Err != nil {
				t.Fatalf("status entry %d: %v", i, st.Err)
			}
			if st.Status.State == StateFailed {
				t.Fatalf("job %d failed: %s", i, st.Status.Error)
			}
			if st.Status.State == StateDone {
				done++
			}
		}
		if done == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d jobs done", done, n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// One bad entry must not fail the batch: the unknown job gets a SiteLost
// per-entry error while its neighbours get real statuses.
func TestBatchPerEntryIsolation(t *testing.T) {
	g := newTestGrid(t)
	contact := g.submitAndCommit(t, JobSpec{Executable: g.stageProgram(t, "echo")})
	gk := g.site.GatekeeperAddr()

	sts, err := g.client.BatchStatus(gk, []string{contact.JobID, "no-such-job"})
	if err != nil {
		t.Fatal(err)
	}
	if sts[0].Err != nil {
		t.Fatalf("known job errored: %v", sts[0].Err)
	}
	if sts[1].Err == nil || faultclass.ClassOf(sts[1].Err) != faultclass.SiteLost {
		t.Fatalf("unknown job: want SiteLost, got %v", sts[1].Err)
	}

	cerrs, err := g.client.BatchCancel(gk, []string{"also-missing", contact.JobID})
	if err != nil {
		t.Fatal(err)
	}
	if cerrs[0] == nil || faultclass.ClassOf(cerrs[0]) != faultclass.SiteLost {
		t.Fatalf("unknown cancel: want SiteLost, got %v", cerrs[0])
	}
	if cerrs[1] != nil {
		t.Fatalf("known cancel: %v", cerrs[1])
	}
}

// SubmissionID dedup must hold inside one batch frame exactly as it does
// across retried single submits: the duplicate entry resolves to the same
// site job instead of a second copy.
func TestBatchSubmitDedupInBatch(t *testing.T) {
	g := newTestGrid(t)
	exe := g.stageProgram(t, "echo")
	subID := NewSubmissionID()
	entries := []BatchSubmitEntry{
		{Spec: JobSpec{Executable: exe}, Opts: SubmitOptions{SubmissionID: subID}},
		{Spec: JobSpec{Executable: exe}, Opts: SubmitOptions{SubmissionID: subID}},
	}
	results, err := g.client.BatchSubmit(g.site.GatekeeperAddr(), entries)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[1].Err != nil {
		t.Fatalf("errs: %v / %v", results[0].Err, results[1].Err)
	}
	if results[0].Contact.JobID != results[1].Contact.JobID {
		t.Fatalf("duplicate SubmissionID created two jobs: %s / %s",
			results[0].Contact.JobID, results[1].Contact.JobID)
	}
}

// Batch cancel must actually kill running jobs.
func TestBatchCancelKillsJobs(t *testing.T) {
	g := newTestGrid(t)
	exe := g.stageProgram(t, "sleep")
	gk := g.site.GatekeeperAddr()
	var ids []string
	for i := 0; i < 3; i++ {
		contact := g.submitAndCommit(t, JobSpec{Executable: exe, Args: []string{"30s"}})
		waitGramState(t, g.client, contact, StateActive)
		ids = append(ids, contact.JobID)
	}
	cerrs, err := g.client.BatchCancel(gk, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range cerrs {
		if e != nil {
			t.Fatalf("cancel %d: %v", i, e)
		}
	}
	deadline := time.Now().Add(8 * time.Second)
	for {
		sts, err := g.client.BatchStatus(gk, ids)
		if err != nil {
			t.Fatal(err)
		}
		terminal := 0
		for _, st := range sts {
			if st.Err == nil && st.Status.State.Terminal() {
				terminal++
			}
		}
		if terminal == len(ids) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d jobs terminal after batch cancel", terminal, len(ids))
		}
		time.Sleep(20 * time.Millisecond)
	}
}
