package condorg

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"condorg/internal/faultclass"
	"condorg/internal/gram"
	"condorg/internal/journal"
	"condorg/internal/obs"
)

// The job journal: an admit image plus patches, each write in its
// durability class (persist.go).

// noSites is a Selector without candidates: under DeferBinding its jobs
// queue unbound and never reach the wire.
type noSites struct{}

func (noSites) Select(SubmitRequest) (string, error) { return "", errors.New("no sites") }

// docOf returns rec as persist would journal it in full.
func docOf(rec *jobRecord) jobDoc {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	doc := rec.jobDoc
	doc.Events = slices.Clone(doc.Events)
	return doc
}

func asJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestSubmitFailsWhenAdmitWriteFails: Submit acknowledges a job only once its
// admit image is in the journal (§3.2). With the owner's partition unable to
// take the write, Submit fails Transient and leaves no job behind.
func TestSubmitFailsWhenAdmitWriteFails(t *testing.T) {
	a, err := NewAgent(AgentConfig{StateDir: t.TempDir(), Selector: noSites{}, DeferBinding: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	req := SubmitRequest{Owner: "u", Executable: gram.Program("task")}
	if _, err := a.Submit(req); err != nil {
		t.Fatal(err)
	}
	if err := a.shardIfPresent("u").store.Close(); err != nil {
		t.Fatal(err)
	}
	id, err := a.Submit(req)
	if err == nil {
		t.Fatalf("Submit acknowledged %s with its journal partition closed", id)
	}
	if faultclass.ClassOf(err) != faultclass.Transient {
		t.Fatalf("Submit error %v is %v, want Transient", err, faultclass.ClassOf(err))
	}
	if _, err := a.Status("gj2"); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("Status of the refused job: %v, want ErrNoSuchJob", err)
	}
	if n := len(a.Jobs()); n != 1 {
		t.Fatalf("%d jobs queued, want only the first", n)
	}
	gm := a.managerFor("u")
	gm.mu.Lock()
	queued := len(gm.pending)
	gm.mu.Unlock()
	if queued > 1 {
		t.Fatalf("the GridManager holds %d jobs to submit, want at most the first", queued)
	}
}

// TestWaitReturnsOnlyDurableTerminal: a terminal state reaches Wait only
// after its journal write has returned. The test seam holds the terminal
// write; Wait — already waiting, or called meanwhile — must not return.
func TestWaitReturnsOnlyDurableTerminal(t *testing.T) {
	runs := &atomic.Int64{}
	site := newSite(t, "s", runs, t.TempDir(), "")
	t.Cleanup(site.Close)
	a, err := NewAgent(AgentConfig{
		StateDir: t.TempDir(),
		Selector: StaticSelector(site.GatekeeperAddr()),
		Probe:    ProbeOptions{Interval: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	held := make(chan struct{})
	release := sync.OnceFunc(func() { close(held) })
	t.Cleanup(release)
	entered := make(chan struct{}, 1)
	a.testPersistHook = func(rec *jobRecord, d durability) {
		rec.mu.Lock()
		terminal := rec.State.Terminal()
		rec.mu.Unlock()
		if terminal && d != lazy {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-held
		}
	}
	id, err := a.Submit(SubmitRequest{Owner: "u", Executable: gram.Program("task"), Args: []string{"30ms"}})
	if err != nil {
		t.Fatal(err)
	}
	wait := func() <-chan JobInfo {
		out := make(chan JobInfo, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			info, _ := a.Wait(ctx, id)
			out <- info
		}()
		return out
	}
	early := wait()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the job's terminal write never started")
	}
	late := wait()
	select {
	case info := <-early:
		t.Fatalf("Wait returned %v while its terminal write was still in flight", info.State)
	case info := <-late:
		t.Fatalf("a Wait begun during the terminal write returned %v", info.State)
	case <-time.After(150 * time.Millisecond):
	}
	release()
	for _, ch := range []<-chan JobInfo{early, late} {
		if info := <-ch; info.State != Completed {
			t.Fatalf("Wait returned %v, want completed", info.State)
		}
	}
}

// TestFailedTerminalWriteLeavesJobUnsettled: a terminal state whose write
// fails is reported neither by Wait nor by WaitAll — the job stays in the
// queue as unsettled until a restart re-derives it from the journal.
func TestFailedTerminalWriteLeavesJobUnsettled(t *testing.T) {
	runs := &atomic.Int64{}
	site := newSite(t, "s", runs, t.TempDir(), "")
	t.Cleanup(site.Close)
	a, err := NewAgent(AgentConfig{
		StateDir: t.TempDir(),
		Selector: StaticSelector(site.GatekeeperAddr()),
		Probe:    ProbeOptions{Interval: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	failed := make(chan struct{})
	var once sync.Once
	a.testPersistHook = func(rec *jobRecord, d durability) {
		rec.mu.Lock()
		terminal := rec.State.Terminal()
		rec.mu.Unlock()
		if terminal && d != lazy {
			// The partition dies under the terminal write.
			once.Do(func() {
				a.shardIfPresent(rec.Owner).store.Close()
				close(failed)
			})
		}
	}
	id, err := a.Submit(SubmitRequest{Owner: "u", Executable: gram.Program("task"), Args: []string{"1ms"}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-failed:
	case <-time.After(10 * time.Second):
		t.Fatal("the job's terminal write never started")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if info, err := a.Wait(ctx, id); err == nil {
		t.Fatalf("Wait reported %v although its terminal write failed", info.State)
	}
	ctx, cancel = context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := a.WaitAll(ctx); err == nil {
		t.Fatal("WaitAll returned although a terminal write failed")
	}
}

// TestUserLogShowsRunningJob: a running job's EXECUTE line is in its owner's
// on-disk user log while the job still runs, although the lazy write that
// carries it waits for the partition's next commit.
func TestUserLogShowsRunningJob(t *testing.T) {
	runs := &atomic.Int64{}
	site := newSite(t, "s", runs, t.TempDir(), "")
	t.Cleanup(site.Close)
	a, err := NewAgent(AgentConfig{
		StateDir: t.TempDir(),
		Selector: StaticSelector(site.GatekeeperAddr()),
		Probe:    ProbeOptions{Interval: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	id, err := a.Submit(SubmitRequest{Owner: "u", Executable: gram.Program("task"), Args: []string{"2s"}})
	if err != nil {
		t.Fatal(err)
	}
	waitAgentState(t, a, id, Running)
	raw, err := os.ReadFile(a.UserLogPath(id))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[1] == id && f[2] == "EXECUTE" {
			if info, _ := a.Status(id); info.State != Running {
				t.Fatalf("job is %v by the time its log was read; want it still running", info.State)
			}
			return
		}
	}
	t.Fatalf("user log of running job %s has no EXECUTE line:\n%s", id, raw)
}

// fill sets v, and everything inside it, to a non-zero value.
func fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString("x")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(2)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(2)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1.5)
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 1, 1)
		fill(s.Index(0))
		v.Set(s)
	case reflect.Map:
		k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fill(k)
		fill(e)
		m := reflect.MakeMap(v.Type())
		m.SetMapIndex(k, e)
		v.Set(m)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fill(p.Elem())
		v.Set(p)
	case reflect.Struct:
		if v.Type() == reflect.TypeFor[time.Time]() {
			v.Set(reflect.ValueOf(time.Date(2001, 2, 3, 4, 5, 6, 7, time.UTC)))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i))
			}
		}
	}
}

// TestPatchCarriesEveryField: every field of the journaled record but the
// appended log and trace is patchable, and a change to any one of them —
// from zero to a full value and back — survives its patch and the fold, so
// no field waits for the next full image. The fold knows what the journal
// holds of every field, so the next patch carries only what changes after.
func TestPatchCarriesEveryField(t *testing.T) {
	// Every JobInfo field but Log, and jobDoc's submission ID, spec and
	// remote state.
	if got, want := len(docFields), reflect.TypeFor[JobInfo]().NumField()-1+3; got != want {
		t.Fatalf("%d patchable fields, want %d", got, want)
	}
	base := jobDoc{JobInfo: JobInfo{ID: "gj1", Owner: "u", SubmittedAt: time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC)}}
	for _, f := range docFields {
		full := base
		fill(reflect.ValueOf(&full).Elem().FieldByIndex(f.index))
		for _, step := range [][2]jobDoc{{base, full}, {full, base}} {
			from, to := step[0], step[1]
			image, err := json.Marshal(&from)
			if err != nil {
				t.Fatal(err)
			}
			fromFields, err := marshalFields(&from)
			if err != nil {
				t.Fatal(err)
			}
			toFields, err := marshalFields(&to)
			if err != nil {
				t.Fatal(err)
			}
			patch, err := patchOf(journaled{imaged: true, fields: fromFields}, &to, toFields)
			if err != nil || patch == nil {
				t.Fatalf("%s: no patch for a change (%v)", f.name, err)
			}
			rec, err := foldJob("gj1", image, []json.RawMessage{patch})
			if err != nil {
				t.Fatal(err)
			}
			if g, w := asJSON(t, docOf(rec)), asJSON(t, &to); g != w {
				t.Fatalf("%s: patch %s folded to\n%s\nwant\n%s", f.name, patch, g, w)
			}
			// The fold reads what the journal holds of each field off the
			// bytes it decoded; they are what encoding the field gives.
			if !reflect.DeepEqual(rec.jw.fields, toFields) {
				t.Fatalf("%s: folded record's journaled fields %q, want %q", f.name, rec.jw.fields, toFields)
			}
		}
	}
}

// mutator drives one agent through random job-state changes with the
// agent's own code paths, no site involved: jobs stay unbound (noSites,
// DeferBinding) and probes never tick.
type mutator struct {
	t   *testing.T
	a   *Agent
	rnd *rand.Rand
	ids []string
}

func (m *mutator) step() {
	t, a := m.t, m.a
	owners := []string{"amy", "ben", "cas"}
	if len(m.ids) == 0 || m.rnd.Intn(8) == 0 {
		req := SubmitRequest{Owner: owners[m.rnd.Intn(len(owners))], Executable: gram.Program("task"),
			Args: []string{fmt.Sprint(len(m.ids))}}
		if m.rnd.Intn(3) == 0 {
			req.Stdin = []byte("in")
		}
		id, err := a.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		m.ids = append(m.ids, id)
		return
	}
	rec, _ := a.job(m.ids[m.rnd.Intn(len(m.ids))])
	gm := a.managerFor(rec.Owner)
	rec.mu.Lock()
	contact := rec.Contact
	rec.mu.Unlock()
	status := func(s gram.JobState) gram.StatusInfo {
		return gram.StatusInfo{JobID: contact.JobID, GatekeeperAddr: contact.GatekeeperAddr, State: s}
	}
	switch m.rnd.Intn(12) {
	case 0:
		a.Hold(rec.ID, fmt.Sprintf("hold %d", m.rnd.Intn(100)))
	case 1:
		a.Release(rec.ID)
	case 2:
		if m.rnd.Intn(4) == 0 {
			a.Remove(rec.ID)
		}
	case 3:
		a.applyRemoteStatus(rec, status(gram.StatePending))
	case 4:
		a.applyRemoteStatus(rec, status(gram.StateActive))
	case 5:
		if m.rnd.Intn(3) == 0 {
			a.applyRemoteStatus(rec, status(gram.StateDone))
		}
	case 6:
		st := status(gram.StateFailed)
		st.Error = "lost"
		if m.rnd.Intn(3) > 0 {
			st.Fault = faultclass.SiteLost
		}
		changed, _ := a.foldRemoteStatus(rec, st)
		if after := gm.maybeResubmit(rec, st, frameWait); after != nil {
			after(a.flushOwner(rec.Owner) == nil)
		} else if changed {
			a.persist(rec, lazy)
		}
	case 7:
		gm.markDisconnected(rec, "127.0.0.1:9")
	case 8:
		if contact.JobID == "" { // only a job without an incarnation is being submitted
			gm.submitFailed(rec, "127.0.0.1:9", errors.New("refused"))
		}
	case 9:
		rec.mu.Lock()
		if rec.State.Terminal() {
			rec.mu.Unlock()
			return
		}
		// As a submit task holding the job would: opBusy keeps the
		// dispatcher off it from here on.
		rec.opBusy = true
		rec.Contact = gram.JobContact{GatekeeperAddr: "127.0.0.1:9", JobID: fmt.Sprintf("s-%d", m.rnd.Intn(1000))}
		a.emit(rec, evGridSubmit, "", "site issued "+rec.Contact.JobID)
		rec.mu.Unlock()
		if err := a.persist(rec, mustWait); err != nil {
			t.Fatal(err)
		}
	case 10:
		rec.mu.Lock()
		rec.Stage.Offset += 64
		rec.Stage.Attempts = m.rnd.Intn(3)
		rec.mu.Unlock()
		a.persist(rec, lazy)
	case 11:
		rec.mu.Lock()
		var c gram.JobContact
		if len(rec.CancelPending) > 0 {
			c = rec.CancelPending[0]
		}
		rec.mu.Unlock()
		if c.JobID != "" {
			a.ackCancelTombstone(rec, c)
			rec.mu.Lock()
			a.emit(rec, evCancelAck, "", "old copy "+c.JobID+" confirmed cancelled")
			rec.mu.Unlock()
			a.persist(rec, lazy)
		}
	}
}

// docs snapshots every job of a as it would be journaled in full.
func (m *mutator) docs(a *Agent) map[string]jobDoc {
	out := make(map[string]jobDoc)
	for _, id := range m.ids {
		if rec, ok := a.job(id); ok {
			out[id] = docOf(rec)
		}
	}
	return out
}

// requireFolded checks that the jobs b recovered fold to want, the records
// as they were in memory before the agent that wrote them closed. Recovery
// itself rewrites a live job's spec URLs to b's spool server and records a
// recover event; both are accounted for.
func requireFolded(t *testing.T, b *Agent, want map[string]jobDoc) {
	t.Helper()
	if n := len(b.Jobs()); n != len(want) {
		t.Fatalf("recovered %d jobs, want %d", n, len(want))
	}
	for id, w := range want {
		rec, ok := b.job(id)
		if !ok {
			t.Fatalf("job %s not recovered", id)
		}
		got := docOf(rec)
		if !w.State.Terminal() {
			b.rewriteSpecURLs(&w.Spec)
			last := len(got.Events) - 1
			if last < 0 || got.Events[last].Phase != obs.PhaseRecover {
				t.Fatalf("recovered live job %s has no recover event", id)
			}
			got.Events = got.Events[:last]
		}
		if g, w := asJSON(t, got), asJSON(t, w); g != w {
			t.Fatalf("job %s folded to\n%s\nwant\n%s", id, g, w)
		}
	}
}

// TestJournalFoldEquivalence: after random mutation sequences, the record a
// fresh agent folds from image plus patches equals the record the writer
// held in memory when it closed — plainly, across segment rotation and
// compaction, and across a standby takeover.
func TestJournalFoldEquivalence(t *testing.T) {
	const steps = 400
	cfg := func(dir string) AgentConfig {
		return AgentConfig{
			StateDir:     dir,
			Selector:     noSites{},
			DeferBinding: true,
			Probe:        ProbeOptions{Interval: time.Hour},
			Tenancy:      TenancyOptions{Partitions: 2},
		}
	}
	t.Run("plain", func(t *testing.T) {
		dir := t.TempDir()
		a, err := NewAgent(cfg(dir))
		if err != nil {
			t.Fatal(err)
		}
		m := &mutator{t: t, a: a, rnd: rand.New(rand.NewSource(1))}
		for i := 0; i < steps; i++ {
			m.step()
		}
		a.Close()
		want := m.docs(a)
		b, err := NewAgent(cfg(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		requireFolded(t, b, want)
	})
	t.Run("compaction", func(t *testing.T) {
		dir := t.TempDir()
		a, err := NewAgent(cfg(dir))
		if err != nil {
			t.Fatal(err)
		}
		m := &mutator{t: t, a: a, rnd: rand.New(rand.NewSource(2))}
		for i := 0; i < steps; i++ {
			m.step()
			if i%97 == 96 {
				// Rotate every partition's segment and fold it into the
				// snapshot, patches and all, mid-history.
				for _, st := range a.parts.Stores() {
					if err := st.Compact(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		a.Close()
		want := m.docs(a)
		b, err := NewAgent(cfg(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		requireFolded(t, b, want)
	})
	t.Run("takeover", func(t *testing.T) {
		pcfg := cfg(t.TempDir())
		pcfg.HA = HAOptions{Enabled: true, SyncTimeout: 2 * time.Second}
		a, err := NewAgent(pcfg)
		if err != nil {
			t.Fatal(err)
		}
		ctl, err := NewControlServer(a)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := NewStandby(StandbyConfig{Primary: ctl.Addr(), StateDir: t.TempDir(), LeaseTTL: 600 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		m := &mutator{t: t, a: a, rnd: rand.New(rand.NewSource(3))}
		for i := 0; i < steps/2; i++ {
			m.step()
		}
		// Lazy changes reach the standby with their partition's next
		// commit; one for every owner, so the standby can hold them all.
		for _, owner := range []string{"amy", "ben", "cas"} {
			if a.shardIfPresent(owner) != nil {
				if err := a.flushOwner(owner); err != nil {
					t.Fatal(err)
				}
			}
		}
		waitStandbyCaughtUp(t, sb, a)
		ctl.Close()
		a.Close()
		want := m.docs(a)
		select {
		case <-sb.TakeoverCh():
		case <-time.After(10 * time.Second):
			t.Fatal("standby never declared the primary dead")
		}
		b, err := sb.Takeover(cfg(""))
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		requireFolded(t, b, want)
	})
}

// copyTree copies the regular files under src to dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(target, 0o700)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.OpenFile(target, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o600)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLazyLossReExecutes: a crash that loses a running job's lazy Active
// patch costs nothing but the log line. A copy of the state directory taken
// while that patch is still unflushed recovers the job, which completes
// exactly once and logs EXECUTE again.
func TestLazyLossReExecutes(t *testing.T) {
	runs := &atomic.Int64{}
	site := newSite(t, "s", runs, t.TempDir(), "")
	t.Cleanup(site.Close)
	dir := t.TempDir()
	cfg := AgentConfig{
		StateDir: dir,
		Selector: StaticSelector(site.GatekeeperAddr()),
		Probe:    ProbeOptions{Interval: time.Minute},
	}
	a1, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := a1.Submit(SubmitRequest{Owner: "u", Executable: gram.Program("task"), Args: []string{"400ms"}})
	if err != nil {
		t.Fatal(err)
	}
	waitAgentState(t, a1, id, Running)
	crashed := t.TempDir()
	copyTree(t, dir, crashed)
	a1.Close()

	// The copy holds the contact (a must-wait write) but not the Active
	// patch, which was waiting for the partition's next commit.
	ps, err := journal.OpenPartitionSet(filepath.Join(crashed, "queue", "parts"), 0, journal.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var onDisk *jobRecord
	for _, st := range ps.Stores() {
		st.ForEachEntry(func(key string, image json.RawMessage, patches []json.RawMessage) error {
			if key == id {
				onDisk, err = foldJob(key, image, patches)
			}
			return err
		})
	}
	ps.Close()
	if onDisk == nil || onDisk.Contact.JobID == "" || onDisk.State == Running {
		t.Fatalf("crash copy holds %+v; want the contact without the Active patch", onDisk)
	}

	cfg.StateDir = crashed
	a2, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a2.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	info, err := a2.Wait(ctx, id)
	if err != nil || info.State != Completed {
		t.Fatalf("recovered job: %v, %v", info.State, err)
	}
	codes := map[string]int{}
	for _, ev := range info.Log {
		codes[ev.Code]++
	}
	if codes["EXECUTE"] != 1 || codes["TERMINATED"] != 1 {
		t.Fatalf("log codes %v, want EXECUTE and TERMINATED once each", codes)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("program ran %d times, want 1", got)
	}
}

// journalBytesByJob replays every partition journal of a closed agent's
// state directory and sums each job's framed records (8 bytes of length
// and CRC plus the chained JSON body), by job ID.
func journalBytesByJob(t *testing.T, stateDir string) map[string]int {
	t.Helper()
	out := make(map[string]int)
	for _, dir := range journal.PartitionDirs(filepath.Join(stateDir, "queue", "parts")) {
		_, err := journal.Replay(filepath.Join(dir, "journal.log"), func(rec journal.Record) error {
			var d struct {
				Key string `json:"key"`
			}
			if err := json.Unmarshal(rec.Data, &d); err != nil {
				return err
			}
			body, err := json.Marshal(rec)
			out[d.Key] += 8 + len(body)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestJournalBytesPerJob: a completed short job whose executable the site
// already caches costs its admit image and at most four small patches
// (contact, commit, Active, Done) — not a full record per state change
// and log line, which came to about 10 kB per job, nor a user log and a
// trace side by side, which came to about 3 kB. The bound is the median
// measured with one event stream (about 2,420 B) plus about 10%.
func TestJournalBytesPerJob(t *testing.T) {
	runs := &atomic.Int64{}
	site := newSite(t, "s", runs, t.TempDir(), "")
	t.Cleanup(site.Close)
	dir := t.TempDir()
	a, err := NewAgent(AgentConfig{StateDir: dir, Selector: StaticSelector(site.GatekeeperAddr())})
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 16
	var ids []string
	for i := 0; i < jobs; i++ {
		id, err := a.Submit(SubmitRequest{Owner: fmt.Sprintf("u%d", i%4), Executable: gram.Program("task"), Args: []string{"1ms"}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if i == 0 { // it stages the shared executable; the rest find it cached
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			a.Wait(ctx, id)
			cancel()
		}
	}
	for _, id := range ids {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		info, err := a.Wait(ctx, id)
		cancel()
		if err != nil || info.State != Completed {
			t.Fatalf("job %s: %v, %v", id, info.State, err)
		}
	}
	a.Close()
	byJob := journalBytesByJob(t, dir)
	var sizes []int
	for _, id := range ids[1:] {
		sizes = append(sizes, byJob[id])
	}
	sort.Ints(sizes)
	median := sizes[len(sizes)/2]
	t.Logf("journal bytes per completed job: median %d (min %d, max %d); the job that staged: %d",
		median, sizes[0], sizes[len(sizes)-1], byJob[ids[0]])
	if median > 2650 {
		t.Fatalf("median %d journal bytes per completed job, want at most 2650", median)
	}
}

// flushCount reads how many group commits an agent's journal has flushed.
func flushCount(a *Agent) uint64 {
	for _, m := range a.MetricsSnapshot() {
		if m.Name == "journal_flush_seconds" {
			return m.Count
		}
	}
	return 0
}

// TestPersistClassesCarryEverything: whatever a lazy write leaves in the
// buffer, a later must-wait write of the same record makes durable — and a
// must-wait write with nothing new still waits out what came before.
func TestPersistClassesCarryEverything(t *testing.T) {
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
	rec, _ := a.job(id)
	before := flushCount(a)
	rec.mu.Lock()
	rec.Stage.Offset = 7
	rec.mu.Unlock()
	if err := a.persist(rec, lazy); err != nil {
		t.Fatal(err)
	}
	if got := flushCount(a); got != before {
		t.Fatalf("a lazy write flushed (%d -> %d)", before, got)
	}
	if err := a.persist(rec, mustWait); err != nil { // nothing new: a bare wait
		t.Fatal(err)
	}
	if got := flushCount(a); got != before+1 {
		t.Fatalf("%d flushes for the must-wait write, want 1", got-before)
	}
	// A crash now (the files as they are) keeps the lazy change.
	crashed := t.TempDir()
	copyTree(t, dir, crashed)
	a.Close()
	cfg.StateDir = crashed
	b, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got, _ := b.Status(id)
	if g, w := asJSON(t, got), asJSON(t, rec.snapshot()); got.Stage.Offset != 7 || g != w {
		t.Fatalf("job after the crash\n%s\nwant\n%s", g, w)
	}
}

// BenchmarkFoldJob times foldJob on the journal history of jobs that were
// running when their agent closed — an admit image plus the patches of
// binding, submission, commit and execution — as recovery folds them.
func BenchmarkFoldJob(b *testing.B) {
	runs := &atomic.Int64{}
	site := newSite(b, "s", runs, b.TempDir(), "")
	defer site.Close()
	dir := b.TempDir()
	a, err := NewAgent(AgentConfig{
		StateDir: dir,
		Selector: StaticSelector(site.GatekeeperAddr()),
		Probe:    ProbeOptions{Interval: 20 * time.Millisecond},
	})
	if err != nil {
		b.Fatal(err)
	}
	const n = 4
	ids := make([]string, n)
	for i := range ids {
		if ids[i], err = a.Submit(SubmitRequest{Owner: "u", Executable: gram.Program("task"), Args: []string{"1m", fmt.Sprint(i)}}); err != nil {
			b.Fatal(err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		running := 0
		for _, id := range ids {
			if info, _ := a.Status(id); info.State == Running {
				running++
			}
		}
		if running == n {
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("jobs never ran")
		}
	}
	a.Close()
	parts, err := journal.OpenPartitionSet(filepath.Join(dir, "queue", "parts"), 0, journal.StoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	type history struct {
		key     string
		image   json.RawMessage
		patches []json.RawMessage
	}
	var hs []history
	for _, st := range parts.Stores() {
		st.ForEachEntry(func(key string, image json.RawMessage, patches []json.RawMessage) error {
			hs = append(hs, history{key, image, patches})
			return nil
		})
	}
	parts.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := hs[i%len(hs)]
		if _, err := foldJob(h.key, h.image, h.patches); err != nil {
			b.Fatal(err)
		}
	}
}
