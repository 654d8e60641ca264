package gram

import (
	"strings"
	"testing"
	"time"

	"condorg/internal/faultclass"
	"condorg/internal/gsi"
	"condorg/internal/lrm"
	"condorg/internal/wire"
)

// newScopedPair brings up two authenticated sites sharing one CA and
// gridmap, plus a client for the mapped user.
func newScopedPair(t *testing.T) (siteA, siteB *Site, user *gsi.Credential, client *Client) {
	t.Helper()
	now := time.Now()
	ca, err := gsi.NewCA("/O=Grid/CN=CA", now, 48*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	gm := gsi.NewGridmap(map[string]string{"/O=Grid/CN=jfrey": "jfrey"})
	mkSite := func(name string) *Site {
		cluster, err := lrm.NewCluster(lrm.Config{Name: name, Cpus: 2})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSite(SiteConfig{
			Name:          name,
			Anchor:        ca.Certificate(),
			Gridmap:       gm,
			Cluster:       cluster,
			Runtime:       testRuntime(),
			StateDir:      t.TempDir(),
			CommitTimeout: time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	siteA, siteB = mkSite("alpha"), mkSite("beta")
	userCred, err := ca.IssueUser("/O=Grid/CN=jfrey", now, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := gsi.NewProxy(userCred, now, 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	client = NewClient(proxy, nil)
	client.SetTimeouts(300*time.Millisecond, 3)
	t.Cleanup(client.Close)
	return siteA, siteB, proxy, client
}

// A proxy the client delegated for site A, replayed (as site A could) in a
// submission to site B, must be refused with a typed Permanent fault — the
// mediated-delegation guarantee that a compromised site cannot reuse the
// proxies it holds anywhere else on the grid.
func TestWrongSiteScopedProxyRejectedOnSubmit(t *testing.T) {
	siteA, siteB, proxy, client := newScopedPair(t)

	// The normal path still works: Submit scopes to the site it targets.
	contact, err := client.Submit(siteA.GatekeeperAddr(), JobSpec{
		Executable: string(Program("echo")), Args: []string{"ok"},
	}, SubmitOptions{SubmissionID: NewSubmissionID(), Delegate: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Commit(contact); err != nil {
		t.Fatal(err)
	}
	waitGramState(t, client, contact, StateDone)

	// Replay: a delegation minted for site A presented at site B.
	forA, err := gsi.DelegateScoped(proxy, siteA.GatekeeperAddr(), time.Now(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	data, err := gsi.EncodeCredential(forA)
	if err != nil {
		t.Fatal(err)
	}
	wc := wire.Dial(siteB.GatekeeperAddr(), wire.ClientConfig{
		ServerName: GatekeeperService,
		Credential: proxy,
		Timeout:    300 * time.Millisecond,
		Retries:    1,
	})
	defer wc.Close()
	var resp batchSubmitResp
	if err := wc.Call("gram.batch-submit", batchSubmitReq{Entries: []submitReq{{
		SubmissionID: NewSubmissionID(),
		Spec:         JobSpec{Executable: string(Program("echo"))},
		Delegated:    data,
	}}}, &resp); err != nil {
		t.Fatal(err)
	}
	err = entryErr(resp.Results[0].Error, resp.Results[0].Fault)
	if err == nil {
		t.Fatal("site B accepted a proxy delegated to site A")
	}
	if got := faultclass.ClassOf(err); got != faultclass.Permanent {
		t.Fatalf("wrong-site submit fault class = %v (%v), want Permanent", got, err)
	}
	if !strings.Contains(err.Error(), "scoped") {
		t.Fatalf("error does not name the scope violation: %v", err)
	}
}

// The refresh verb applies the same vetting: a gatekeeper only accepts a
// renewed proxy that is scoped to its own site, and refuses the whole frame
// with a Permanent fault otherwise.
func TestWrongSiteScopedProxyRejectedOnRefresh(t *testing.T) {
	siteA, siteB, proxy, client := newScopedPair(t)

	contact, err := client.Submit(siteA.GatekeeperAddr(), JobSpec{
		Executable: string(Program("sleep")), Args: []string{"300ms"},
	}, SubmitOptions{SubmissionID: NewSubmissionID(), Delegate: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Commit(contact); err != nil {
		t.Fatal(err)
	}

	// A refresh payload scoped to site B, pushed at site A's gatekeeper.
	forB, err := gsi.DelegateScoped(proxy, siteB.GatekeeperAddr(), time.Now(), 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	data, err := gsi.EncodeCredential(forB)
	if err != nil {
		t.Fatal(err)
	}
	req := batchRefreshReq{JobIDs: []string{contact.JobID}, Delegated: data}
	err = client.gatekeeper(contact.GatekeeperAddr).Call("gram.batch-refresh-credential", req, nil)
	if err == nil {
		t.Fatal("gatekeeper accepted a refresh scoped to another site")
	}
	if !wire.IsRemote(err) {
		t.Fatalf("wrong-site refresh: %v, want a remote error for the frame", err)
	}
	if got := faultclass.ClassOf(err); got != faultclass.Permanent {
		t.Fatalf("wrong-site refresh fault class = %v (%v), want Permanent", got, err)
	}

	// The correctly scoped refresh still succeeds in-band.
	errs, err := client.BatchRefreshCredential(contact.GatekeeperAddr, []string{contact.JobID}, 2*time.Hour)
	if err != nil || errs[0] != nil {
		t.Fatalf("refresh: %v / %v", err, errs)
	}
	waitGramState(t, client, contact, StateDone)
}
