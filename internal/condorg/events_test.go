package condorg

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"condorg/internal/gram"
	"condorg/internal/obs"
)

// TestEmitKinds: every kind of event reaches the trace, the user log only
// when it carries a code, and bumps exactly its own counter — once, and
// not again when the record is read back by a restarted agent.
func TestEmitKinds(t *testing.T) {
	resubmits := obs.Key("agent_resubmits_total", "class", "site-lost")
	cred := func(outcome string) string { return obs.Key("cred_redelegations_total", "outcome", outcome) }
	kinds := []struct {
		k                    *eventKind
		phase, code, counter string
	}{
		{evSubmit, obs.PhaseSubmit, "SUBMIT", "agent_jobs_submitted_total"},
		{evBind, obs.PhaseBind, "BIND", ""},
		{evDispatch, obs.PhaseDispatch, "", ""},
		{evStage, obs.PhaseStage, "", ""},
		{evGridSubmit, obs.PhaseGridSubmit, "", ""},
		{evCommit, obs.PhaseCommit, "GRID_SUBMIT", ""},
		{evCommitRetry, obs.PhaseCommitRetry, "COMMIT_RETRY", ""},
		{evSubmitRetry, obs.PhaseSubmitRetry, "SUBMIT_RETRY", ""},
		{evPending, obs.PhasePending, "", ""},
		{evActive, obs.PhaseActive, "EXECUTE", ""},
		{evDone, obs.PhaseDone, "TERMINATED", ""},
		{evRemoteFailure, obs.PhaseRemoteFailure, "REMOTE_FAILURE", ""},
		{evFault, obs.PhaseFault, "", ""},
		{evFailed, obs.PhaseFailed, "FAILED", "agent_jobs_failed_total"},
		{evResubmit, obs.PhaseResubmit, "RESUBMIT", resubmits},
		{evMigrate, obs.PhaseMigrate, "MIGRATED", "agent_migrations_total"},
		{evDisconnect, obs.PhaseDisconnect, "DISCONNECTED", ""},
		{evReconnect, obs.PhaseReconnect, "RECONNECTED", ""},
		{evJMRestart, obs.PhaseJMRestart, "JM_RESTARTED", ""},
		{evJMRestartFailed, obs.PhaseJMRestart, "JM_RESTART_FAILED", ""},
		{evCancelAck, obs.PhaseCancelAck, "CANCEL_ACKED", ""},
		{evHold, obs.PhaseHold, "HELD", "agent_jobs_held_total"},
		{evRelease, obs.PhaseRelease, "RELEASED", ""},
		{evRemove, obs.PhaseRemove, "REMOVED", "agent_jobs_removed_total"},
		{evRecover, obs.PhaseRecover, "", ""},
		{evCredRefresh, obs.PhaseCredRefresh, "CRED_REFRESH", cred("ok")},
		{evCredRetry, obs.PhaseCredRefresh, "", cred("retry")},
		{evCredFallback, obs.PhaseCredRefresh, "", cred("fallback")},
	}
	counters := []string{"agent_jobs_submitted_total", "agent_jobs_failed_total", resubmits,
		"agent_migrations_total", "agent_jobs_held_total", "agent_jobs_removed_total",
		cred("ok"), cred("retry"), cred("fallback")}
	count := func(a *Agent) map[string]int64 {
		out := make(map[string]int64)
		for _, name := range counters {
			out[name] = a.obs.Counter(name).Value()
		}
		return out
	}

	dir := t.TempDir()
	cfg := AgentConfig{StateDir: dir, Selector: noSites{}, DeferBinding: true, Probe: ProbeOptions{Interval: time.Hour}}
	a, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := a.Submit(SubmitRequest{Owner: "u", Executable: gram.Program("task")})
	if err != nil {
		t.Fatal(err)
	}
	// Held, so no GridManager touches the job while the test moves its
	// site around, before or after the restart.
	if err := a.Hold(id, "parked"); err != nil {
		t.Fatal(err)
	}
	rec, _ := a.job(id)
	for _, w := range kinds {
		before := count(a)
		rec.mu.Lock()
		rec.Site = "site-" + w.phase
		a.emit(rec, w.k, "site-lost", "kind "+w.phase+"/"+w.code)
		rec.mu.Unlock()
		after := count(a)
		for _, name := range counters {
			bumped := after[name] - before[name]
			if name == w.counter && bumped != 1 || name != w.counter && bumped != 0 {
				t.Errorf("kind %s/%s moved %s by %d", w.phase, w.code, name, bumped)
			}
		}
		info, _ := a.Status(id)
		last := info.Log[len(info.Log)-1]
		if inLog := last.Text == "kind "+w.phase+"/"+w.code; inLog != (w.code != "") || inLog && last.Code != w.code {
			t.Errorf("kind %s/%s: user log ends %+v", w.phase, w.code, last)
		}
		tl, _ := a.Trace(id)
		ev := tl.Events[len(tl.Events)-1]
		if ev.Phase != w.phase || ev.Site != rec.Site || ev.Class != "site-lost" || ev.Detail != "kind "+w.phase+"/"+w.code {
			t.Errorf("kind %s/%s: trace ends %+v", w.phase, w.code, ev)
		}
	}
	if err := a.persist(rec, mustWait); err != nil {
		t.Fatal(err)
	}
	wantLog, _ := a.UserLog(id)
	wantTrace, _ := a.Trace(id)
	a.Close()

	b, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for name, n := range count(b) {
		if n != 0 {
			t.Errorf("replay bumped %s to %d", name, n)
		}
	}
	gotLog, _ := b.UserLog(id)
	gotTrace, _ := b.Trace(id)
	gotTrace.Events = gotTrace.Events[:len(gotTrace.Events)-1] // this restart's recover event
	if g, w := asJSON(t, gotLog), asJSON(t, wantLog); g != w {
		t.Errorf("user log read back as\n%s\nwant\n%s", g, w)
	}
	if g, w := asJSON(t, gotTrace), asJSON(t, wantTrace); g != w {
		t.Errorf("trace read back as\n%s\nwant\n%s", g, w)
	}
}

// TestUserLogRetriesFailedAppend: a user-log line that cannot be appended
// is not lost: the job's next write appends it, in order, before its own.
func TestUserLogRetriesFailedAppend(t *testing.T) {
	dir := t.TempDir()
	a, err := NewAgent(AgentConfig{StateDir: dir, Selector: noSites{}, DeferBinding: true, Probe: ProbeOptions{Interval: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	path := filepath.Join(dir, "logs", "u.log")
	if err := os.Mkdir(path, 0o700); err != nil { // the log cannot be opened
		t.Fatal(err)
	}
	id, err := a.Submit(SubmitRequest{Owner: "u", Executable: gram.Program("task")})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := a.Hold(id, "later event"); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var codes []string
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[1] == id {
			codes = append(codes, f[2])
		}
	}
	if strings.Join(codes, " ") != "SUBMIT HELD" {
		t.Fatalf("user log after the failed append holds %v, want [SUBMIT HELD]:\n%s", codes, raw)
	}
}

// TestReadEventsMatchesUnmarshal: the events an image or patch carries are
// read in place exactly as encoding/json reads them — escaped, non-ASCII
// and empty members, sites carried over from the history — and a list in
// any other shape, or with a time before 1970, goes to encoding/json.
func TestReadEventsMatchesUnmarshal(t *testing.T) {
	history := []Event{{At: time.Unix(0, 1), Site: "gk:1"}}
	viaJSON := func(raw []byte) eventList {
		var in []eventJSON
		if err := json.Unmarshal(raw, &in); err != nil {
			t.Fatal(err)
		}
		out, site := eventList(slices.Clone(history)), lastSite(history)
		for _, ev := range in {
			if ev.Site != "" {
				site = ev.Site
			}
			out = append(out, Event{At: time.Unix(0, ev.At), Phase: ev.Phase, Code: ev.Code, Site: site, Class: ev.Class, Text: ev.Text})
		}
		return out
	}
	evs := eventList{
		{At: time.Unix(5, 6), Phase: obs.PhaseSubmit, Code: "SUBMIT", Site: "gk:1", Text: "quo\"te <html> & tab\tünï"},
		{At: time.Unix(7, 0), Phase: obs.PhaseFault, Site: "gk:2", Class: "site-lost"},
		{At: time.Unix(8, 0), Code: "HELD", Site: "gk:2"},
		{At: time.Unix(9, 0), Site: "gk:2"},
	}
	raw, err := evs.encode(history)
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range [][]byte{raw, []byte(`[]`)} {
		got, ok := eventList(slices.Clone(history)).readEvents(raw, lastSite(history))
		if !ok {
			t.Fatalf("readEvents refused %s, which encode wrote", raw)
		}
		if want := viaJSON(raw); !reflect.DeepEqual(got, want) {
			t.Fatalf("readEvents(%s) = %+v, encoding/json %+v", raw, got, want)
		}
	}
	old, err := eventList{{At: time.Unix(-9, 0), Code: "HELD"}}.encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, foreign := range []string{string(old), `[ ]`, `[{"phase":"x","at":1}]`, `[{"at":1.5}]`, `[{"at":1} ]`, `[{"at":1,"text":"x","code":"y"}]`, `null`} {
		if _, ok := eventList(nil).readEvents([]byte(foreign), ""); ok {
			t.Fatalf("readEvents took %s", foreign)
		}
		got, err := eventList(nil).decode([]byte(foreign))
		var in []eventJSON
		if werr := json.Unmarshal([]byte(foreign), &in); (err == nil) != (werr == nil) || len(got) != len(in) {
			t.Fatalf("decode(%s) = %+v, %v; encoding/json %+v, %v", foreign, got, err, in, werr)
		}
	}
}
