package condorg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"condorg/internal/faultclass"
	"condorg/internal/gram"
	"condorg/internal/journal"
)

// haOwners are the owners the HA tests submit under: HA and tenancy must
// compose, so their jobs have to live in more than one journal partition
// (requireSpread asserts they do).
var haOwners = []string{"amy", "ben", "cas"}

// requireSpread fails the test unless owners are at least three and hash
// to at least two of the agent's journal partitions.
func requireSpread(t *testing.T, a *Agent, owners []string) {
	t.Helper()
	buckets := map[int]bool{}
	for _, o := range owners {
		buckets[a.parts.IndexFor(o)] = true
	}
	if len(owners) < 3 || len(buckets) < 2 {
		t.Fatalf("owners %v hash to partitions %v; want >=3 owners across >=2 partitions", owners, buckets)
	}
}

// queueHeads returns the chain head of every partition of a queue, by
// partition index.
func queueHeads(t *testing.T, ps *journal.PartitionSet) []journal.ChainState {
	t.Helper()
	heads := make([]journal.ChainState, ps.Partitions())
	for i := range heads {
		st, err := ps.Partition(i)
		if err != nil {
			t.Fatal(err)
		}
		heads[i] = st.ChainHead()
	}
	return heads
}

// waitStandbyCaughtUp blocks until every partition of the standby has
// reached (at least) the primary's chain head as of the call.
func waitStandbyCaughtUp(t *testing.T, sb *Standby, primary *Agent) {
	t.Helper()
	want := queueHeads(t, primary.parts)
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := queueHeads(t, sb.parts)
		behind := false
		for i := range want {
			behind = behind || got[i].Seq < want[i].Seq
		}
		if !behind {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby stuck at %+v, want >= %+v (lastErr=%v)", got, want, sb.LastErr())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStandbyFailover is the HA happy path end to end: a standby tails the
// primary's journal partitions, the primary dies mid-flight, the lease
// expires, and the promoted agent finishes every owner's jobs without a
// single re-execution.
func TestStandbyFailover(t *testing.T) {
	runs := &atomic.Int64{}
	var gks []string
	for i := 0; i < 2; i++ {
		site := newSite(t, fmt.Sprintf("ha-site%d", i), runs, t.TempDir(), "")
		t.Cleanup(site.Close)
		gks = append(gks, site.GatekeeperAddr())
	}
	primary, err := NewAgent(AgentConfig{
		StateDir: t.TempDir(),
		Selector: &RoundRobinSelector{Sites: gks},
		Probe:    ProbeOptions{Interval: 40 * time.Millisecond},
		HA:       HAOptions{Enabled: true, SyncTimeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewControlServer(primary)
	if err != nil {
		t.Fatal(err)
	}
	sbCfg := StandbyConfig{
		Primary:  ctl.Addr(),
		StateDir: t.TempDir(),
		LeaseTTL: 600 * time.Millisecond,
	}
	sb, err := NewStandby(sbCfg)
	if err != nil {
		t.Fatal(err)
	}

	requireSpread(t, primary, haOwners)
	const jobs = 6
	var ids []string
	for i := 0; i < jobs; i++ {
		id, err := primary.Submit(SubmitRequest{
			Owner:      haOwners[i%len(haOwners)],
			Executable: gram.Program("task"),
			Args:       []string{"250ms", fmt.Sprintf("job%d", i)},
			Stdin:      []byte("replicate me"),
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	// The standby must catch up to (at least) the post-submit chain heads,
	// at which point the primary's sync-replication wait is armed.
	waitStandbyCaughtUp(t, sb, primary)
	// The health row folds the partitions together; it reads "armed" once
	// the standby has polled every partition the primary has open.
	cli := NewControlClient(ctl.Addr())
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		health, err := cli.HealthFull()
		if err != nil || health.HA == nil {
			t.Fatalf("health lacks HA status: %+v err=%v", health, err)
		}
		if health.HA.Enabled && health.HA.FollowerAcked > 0 && health.HA.SyncArmed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("HA status not tracking the follower: %+v", health.HA)
		}
	}
	cli.Close()

	// Primary dies with jobs still executing at the sites.
	ctl.Close()
	primary.Close()

	// Double failure: the standby restarts while the primary is already
	// gone. Its state directory carries the partition layout, so it must
	// come back without the primary and still outlive the lease; only a
	// fresh directory needs the primary to start.
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
	if sb, err = NewStandby(sbCfg); err != nil {
		t.Fatalf("standby restart with the primary dead: %v", err)
	}
	fresh := sbCfg
	fresh.StateDir = t.TempDir()
	if orphan, err := NewStandby(fresh); err == nil {
		orphan.Close()
		t.Fatal("standby with a fresh state dir started without a primary to learn the layout from")
	}

	select {
	case <-sb.TakeoverCh():
	case <-time.After(10 * time.Second):
		t.Fatal("standby never declared the primary dead")
	}
	promoted, err := sb.Takeover(AgentConfig{
		Selector: &RoundRobinSelector{Sites: gks},
		Probe:    ProbeOptions{Interval: 40 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("takeover: %v", err)
	}
	defer promoted.Close()

	for i, id := range ids {
		info := waitAgentState(t, promoted, id, Completed)
		if !info.ExitOK {
			t.Fatalf("job %s finished without ExitOK", id)
		}
		if want := haOwners[i%len(haOwners)]; info.Owner != want {
			t.Fatalf("job %s promoted under owner %q, want %q", id, info.Owner, want)
		}
	}
	// Exactly-once across the failover: the sites deduplicated the
	// promoted agent's resubmissions by SubmissionID.
	if got := runs.Load(); got != jobs {
		t.Fatalf("task executed %d times for %d jobs", got, jobs)
	}
}

// TestStandbyTracksLivePrimary: without a failure the standby just mirrors —
// including deletes of replicated payloads as jobs finish — and never takes
// over a primary that is alive but idle.
func TestStandbyTracksLivePrimary(t *testing.T) {
	runs := &atomic.Int64{}
	site := newSite(t, "track-site", runs, t.TempDir(), "")
	t.Cleanup(site.Close)
	primary, err := NewAgent(AgentConfig{
		StateDir: t.TempDir(),
		Selector: &RoundRobinSelector{Sites: []string{site.GatekeeperAddr()}},
		Probe:    ProbeOptions{Interval: 40 * time.Millisecond},
		HA:       HAOptions{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	ctl, err := NewControlServer(primary)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	const leaseTTL = 900 * time.Millisecond
	sb, err := NewStandby(StandbyConfig{
		Primary:  ctl.Addr(),
		StateDir: t.TempDir(),
		LeaseTTL: leaseTTL,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()

	requireSpread(t, primary, haOwners)
	var ids []string
	for _, owner := range haOwners {
		id, err := primary.Submit(SubmitRequest{
			Owner: owner, Executable: gram.Program("task"), Args: []string{"20ms"}, Stdin: []byte("payload"),
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		waitAgentState(t, primary, id, Completed)
	}

	// The queue is quiet once every job is done, so the standby must
	// converge on exactly the primary's heads, partition by partition.
	deadline := time.Now().Add(5 * time.Second)
	for !reflect.DeepEqual(queueHeads(t, sb.parts), queueHeads(t, primary.parts)) {
		if time.Now().After(deadline) {
			t.Fatalf("standby heads %+v never matched primary %+v (lastErr=%v)",
				queueHeads(t, sb.parts), queueHeads(t, primary.parts), sb.LastErr())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if sb.LastErr() != nil {
		t.Fatalf("replication errored: %v", sb.LastErr())
	}

	// Nothing left to stream: every long-poll now runs to its LeaseTTL/3
	// bound, and each answer still renews the lease.
	select {
	case <-sb.TakeoverCh():
		t.Fatalf("standby took over a live, idle primary (lastErr=%v)", sb.LastErr())
	case <-time.After(3 * leaseTTL):
	}
}

// TestStandbyRejectsPartitionMismatch: a standby whose state directory is
// pinned to another partition count than the primary's would hash owners
// to different chains after a takeover; replication stops, Permanent,
// before it applies a single record.
func TestStandbyRejectsPartitionMismatch(t *testing.T) {
	site := newSite(t, "mismatch-site", &atomic.Int64{}, t.TempDir(), "")
	t.Cleanup(site.Close)
	primary, err := NewAgent(AgentConfig{
		StateDir: t.TempDir(),
		Selector: &RoundRobinSelector{Sites: []string{site.GatekeeperAddr()}},
		Tenancy:  TenancyOptions{Partitions: 4},
		HA:       HAOptions{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	ctl, err := NewControlServer(primary)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if _, err := primary.Submit(SubmitRequest{Owner: "amy", Executable: gram.Program("task"), Args: []string{"30s"}}); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	pinned, err := openQueue(dir, 8, journal.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pinned.Close()

	// The pinned directory opens without asking the primary; the first
	// reply ends replication for good — long before the lease could — and
	// Takeover reports why instead of promoting.
	sb, err := NewStandby(StandbyConfig{Primary: ctl.Addr(), StateDir: dir, LeaseTTL: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sb.TakeoverCh():
	case <-time.After(5 * time.Second):
		sb.Close()
		t.Fatalf("standby pinned to 8 partitions keeps tailing a 4-partition primary (lastErr=%v)", sb.LastErr())
	}
	_, err = sb.Takeover(AgentConfig{})
	if err == nil {
		t.Fatal("standby pinned to 8 partitions took over a 4-partition primary's queue")
	}
	if faultclass.ClassOf(err) != faultclass.Permanent {
		t.Fatalf("mismatch classified %v, want Permanent: %v", faultclass.ClassOf(err), err)
	}
	if !strings.Contains(err.Error(), dir) {
		t.Fatalf("mismatch error does not name the state directory: %v", err)
	}
	for _, p := range journal.PartitionDirs(filepath.Join(dir, "queue", "parts")) {
		if rep, err := journal.VerifyDir(p); err != nil || rep.Head.Seq != 0 {
			t.Fatalf("rejected standby applied records to %s: %+v err=%v", p, rep, err)
		}
	}
}

// TestAgentRefusesCorruptQueue: mid-chain damage in one partition of the
// persisted queue must surface from NewAgent as a typed, Permanent
// *journal.CorruptionError naming that partition's segment — never a
// silent partial recovery — and leave the intact partitions alone.
func TestAgentRefusesCorruptQueue(t *testing.T) {
	dir := t.TempDir()
	a, err := NewAgent(AgentConfig{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	site := newSite(t, "corrupt-site", &atomic.Int64{}, t.TempDir(), "")
	t.Cleanup(site.Close)
	const damaged, intact = "amy", "ben"
	if a.parts.IndexFor(damaged) == a.parts.IndexFor(intact) {
		t.Fatalf("owners %s and %s share a partition", damaged, intact)
	}
	for i := 0; i < 4; i++ {
		for _, owner := range []string{damaged, intact} {
			if _, err := a.Submit(SubmitRequest{
				Owner: owner, Executable: gram.Program("task"), Site: site.GatekeeperAddr(),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	journalOf := func(owner string) string {
		return filepath.Join(dir, "queue", "parts", fmt.Sprintf("p%d", a.parts.IndexFor(owner)), "journal.log")
	}
	jpath, okPath := journalOf(damaged), journalOf(intact)
	a.Close()

	// Flip one bit in the first record of one partition's journal (several
	// intact records follow).
	raw, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	size := binary.LittleEndian.Uint32(raw[0:4])
	if int(8+size) >= len(raw) {
		t.Fatalf("journal too short to corrupt mid-file (%d bytes)", len(raw))
	}
	raw[8+size/2] ^= 0x10
	if err := os.WriteFile(jpath, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	okBefore, err := os.ReadFile(okPath)
	if err != nil {
		t.Fatal(err)
	}

	_, err = NewAgent(AgentConfig{StateDir: dir})
	var ce *journal.CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("NewAgent on corrupt queue = %v, want *journal.CorruptionError", err)
	}
	if ce.Path != jpath {
		t.Fatalf("corruption names %s, want %s", ce.Path, jpath)
	}
	if faultclass.ClassOf(err) != faultclass.Permanent {
		t.Fatalf("corruption classified %v, want Permanent", faultclass.ClassOf(err))
	}
	if _, err := os.Stat(jpath + ".quarantine"); err != nil {
		t.Fatalf("corrupt queue segment not quarantined: %v", err)
	}
	okAfter, err := os.ReadFile(okPath)
	if err != nil || !bytes.Equal(okBefore, okAfter) {
		t.Fatalf("the intact partition's journal was touched (err=%v)", err)
	}
}
