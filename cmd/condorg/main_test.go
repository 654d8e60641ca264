package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"condorg/internal/condorg"
	"condorg/internal/gram"
	"condorg/internal/journal"
)

// writeFile writes body to a fresh file under t.TempDir and returns its path.
func writeFile(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// withoutClock drops what reflect.DeepEqual cannot compare (the clock func).
func withoutClock(c serveConfig) serveConfig {
	c.agent.Clock = nil
	return c
}

// TestServeFlagsMapToConfig: every serve flag lands in exactly the config
// field it names, and an agent flag left unset keeps DefaultAgentConfig's
// value.
func TestServeFlagsMapToConfig(t *testing.T) {
	got, err := parseServe([]string{"-sites", "a:1"})
	if err != nil {
		t.Fatal(err)
	}
	want := serveConfig{agent: condorg.DefaultAgentConfig(), listen: "127.0.0.1:0", sites: []string{"a:1"}}
	want.agent.Tenancy.Partitions = journal.DefaultPartitions
	if !reflect.DeepEqual(withoutClock(got), withoutClock(want)) {
		t.Fatalf("defaults:\n got %+v\nwant %+v", got, want)
	}

	users := writeFile(t, "users", "* u p mp:7512\n")
	got, err = parseServe([]string{
		"-listen", "127.0.0.1:7100", "-sites", "a:1,b:2", "-state", "/srv/agent", "-sync",
		"-max-submit-retries", "7", "-per-site-inflight", "2", "-max-inflight", "9", "-no-stage", "-ha",
		"-journal-partitions", "4", "-max-queued-per-owner", "5", "-max-active-per-owner", "3",
		"-submit-rate", "2.5", "-submit-burst", "6", "-max-payload-bytes", "1024",
		"-glidein", "-glidein-min", "1", "-glidein-max", "8", "-glidein-lease", "2h",
		"-glidein-idle", "30s", "-glidein-interval", "2s", "-glidein-cpus", "6",
		"-myproxy-users", users, "-cred-renew-lead", "2h", "-cred-renew-jitter", "10m",
		"-cred-renew-interval", "30s", "-cred-renew-lifetime", "6h",
	})
	if err != nil {
		t.Fatal(err)
	}
	want = serveConfig{agent: condorg.DefaultAgentConfig(), listen: "127.0.0.1:7100", sites: []string{"a:1", "b:2"}, glidein: true, users: users}
	a := &want.agent
	a.StateDir, a.Journal.Sync, a.Stage.Disabled, a.HA.Enabled, a.DeferBinding = "/srv/agent", true, true, true, true
	a.Retry.MaxSubmitRetries, a.Pipeline.PerSiteInFlight, a.Pipeline.MaxInFlight = 7, 2, 9
	a.Tenancy = condorg.TenancyOptions{
		Partitions: 4, MaxQueuedPerOwner: 5, MaxActivePerOwner: 3, SubmitRate: 2.5, SubmitBurst: 6, MaxPayloadBytes: 1024,
		MyProxy: map[string]condorg.MyProxyBinding{}, MyProxyDefault: &condorg.MyProxyBinding{Addr: "mp:7512", User: "u", Pass: "p"},
	}
	want.pool.MinPilots, want.pool.MaxPilots, want.pool.PilotCpus = 1, 8, 6
	want.pool.Lease, want.pool.IdleTimeout, want.pool.Interval = 2*time.Hour, 30*time.Second, 2*time.Second
	want.cred.RenewLead, want.cred.RenewJitter = 2*time.Hour, 10*time.Minute
	want.cred.Interval, want.cred.RenewLifetime = 30*time.Second, 6*time.Hour
	if !reflect.DeepEqual(withoutClock(got), withoutClock(want)) {
		t.Fatalf("every flag set:\n got %+v\nwant %+v", got, want)
	}

	got, err = parseServe([]string{"-mds", "m:1", "-standby", "p:7100", "-lease-ttl", "900ms"})
	if err != nil {
		t.Fatal(err)
	}
	if got.mds != "m:1" || got.standby != "p:7100" || got.leaseTTL != 900*time.Millisecond {
		t.Fatalf("standby flags: %+v", got)
	}

	for _, bad := range []struct {
		args []string
		want string
	}{
		{[]string{"-sites", "a:1", "-journal-partitions", "0"}, "must be positive"},
		{[]string{"-glidein", "-mds", "m:1"}, "-glidein needs -sites"},
		{[]string{"-glidein", "-sites", "a:1", "-standby", "p:1"}, "cannot be combined with -standby"},
		{nil, "need -sites or -mds"},
		{[]string{"-sites", "a:1", "-stage-streams", "4"}, "not defined"},
	} {
		if _, err := parseServe(bad.args); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("parseServe(%q) = %v, want an error containing %q", bad.args, err, bad.want)
		}
	}

	// The registered defaults are DefaultAgentConfig's, so -h prints them.
	def := condorg.DefaultAgentConfig()
	fs := serveFlags(&serveConfig{})
	for name, v := range map[string]int{
		"max-submit-retries": def.Retry.MaxSubmitRetries,
		"per-site-inflight":  def.Pipeline.PerSiteInFlight,
		"max-inflight":       def.Pipeline.MaxInFlight,
		"journal-partitions": journal.DefaultPartitions,
	} {
		if got := fs.Lookup(name).DefValue; got != strconv.Itoa(v) {
			t.Errorf("-%s registered with default %s, want %d", name, got, v)
		}
	}
}

// TestMyProxyUsersFile: owner lines with and without an addr, the * default,
// and the two ways a file is refused with its file:line — a malformed line,
// and an owner line naming no server with no * line to supply one (such an
// owner would otherwise be watched and silently never renewed).
func TestMyProxyUsersFile(t *testing.T) {
	path := writeFile(t, "users", "# owner user pass [addr]\nalice ua pa mp1:7512\n\nbob ub pb\n* ud pd mp0:7512\n")
	bindings, def, err := parseMyProxyUsers(path)
	if err != nil {
		t.Fatal(err)
	}
	wantB := map[string]condorg.MyProxyBinding{
		"alice": {Addr: "mp1:7512", User: "ua", Pass: "pa"},
		"bob":   {Addr: "mp0:7512", User: "ub", Pass: "pb"},
	}
	if !reflect.DeepEqual(bindings, wantB) || def == nil || *def != (condorg.MyProxyBinding{Addr: "mp0:7512", User: "ud", Pass: "pd"}) {
		t.Fatalf("bindings %+v default %+v", bindings, def)
	}

	for _, bad := range []struct{ body, line string }{
		{"alice ua pa mp1:7512\nbob ub pb\n", ":2:"},
		{"alice ua\n", ":1:"},
		{"alice ua pa mp1:7512 extra\n", ":1:"},
		{"# default\n* ud pd\n", ":2:"},
	} {
		path := writeFile(t, "users", bad.body)
		if _, _, err := parseMyProxyUsers(path); err == nil || !strings.Contains(err.Error(), path+bad.line) {
			t.Errorf("%q: err = %v, want one naming %s%s", bad.body, err, path, bad.line)
		}
	}
	// serve refuses to start on such a file.
	path = writeFile(t, "users", "bob ub pb\n")
	if _, err := parseServe([]string{"-sites", "a:1", "-myproxy-users", path}); err == nil || !strings.Contains(err.Error(), path+":1:") {
		t.Fatalf("serve accepted an owner that would never be renewed: %v", err)
	}
}

// docDrift compares the flag tables of the operator guide, in document
// order, with the flag sets they document: a row without a registration, a
// registration without a row, and a row whose default column does not show
// the registered non-zero default are each reported.
func docDrift(doc string, sets []*flag.FlagSet) []string {
	var tables []map[string]string // flag name -> default cell
	for _, line := range strings.Split(doc, "\n") {
		line = strings.TrimSpace(line) // a table may sit inside a list item
		switch {
		case strings.HasPrefix(line, "| flag | default |"):
			tables = append(tables, map[string]string{})
		case strings.HasPrefix(line, "| `-") && len(tables) > 0:
			cells := strings.Split(line, "|")
			name := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(cells[1]), "`-"), "`")
			tables[len(tables)-1][name] = cells[2]
		}
	}
	if len(tables) != len(sets) {
		return []string{fmt.Sprintf("the guide has %d flag tables for %d commands", len(tables), len(sets))}
	}
	var drift []string
	for i, fs := range sets {
		rows := tables[i]
		fs.VisitAll(func(f *flag.Flag) {
			cell, ok := rows[f.Name]
			switch {
			case !ok:
				drift = append(drift, fs.Name()+" registers -"+f.Name+" but the guide has no row for it")
			case f.DefValue != "" && f.DefValue != "0" && f.DefValue != "0s" && f.DefValue != "false" && !strings.Contains(cell, f.DefValue):
				drift = append(drift, fs.Name()+" -"+f.Name+" defaults to "+f.DefValue+" but the guide says"+cell)
			}
		})
		for name := range rows {
			if fs.Lookup(name) == nil {
				drift = append(drift, "the guide documents "+fs.Name()+" -"+name+" but it is not registered")
			}
		}
	}
	return drift
}

// TestOperationsDocMatchesCLI: the flag tables of docs/OPERATIONS.md are
// exactly what serve, gateway and audit verify register, in both
// directions, with the registered defaults.
func TestOperationsDocMatchesCLI(t *testing.T) {
	raw, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	sets := func() []*flag.FlagSet {
		return []*flag.FlagSet{
			serveFlags(&serveConfig{}),
			gatewayFlags(new(string), new(string), new(string)),
			auditFlags(new(string), new(bool)),
		}
	}
	for _, d := range docDrift(doc, sets()) {
		t.Error(d)
	}

	// The guard sees a row with no registration, and a registration with
	// no row.
	row := "| `-sync` |"
	if !strings.Contains(doc, row) {
		t.Fatalf("the guide has no %s row to mutate", row)
	}
	extra := strings.Replace(doc, row, "| `-stage-streams` | 4 | gone |\n"+row, 1)
	if d := docDrift(extra, sets()); len(d) != 1 || !strings.Contains(d[0], "-stage-streams but it is not registered") {
		t.Errorf("an unregistered row went unnoticed: %q", d)
	}
	missing := strings.Replace(doc, row, "| sync |", 1)
	if d := docDrift(missing, sets()); len(d) != 1 || !strings.Contains(d[0], "-sync but the guide has no row") {
		t.Errorf("a registration without a row went unnoticed: %q", d)
	}
}

// TestAuditVerifyStamp: audit verify applies the agent's state-directory
// rule, given the state directory or its queue directory: a stamped
// directory verifies, and one without a stamp or with another is refused.
func TestAuditVerifyStamp(t *testing.T) {
	stamped := func(t *testing.T) string {
		dir := t.TempDir()
		a, err := condorg.NewAgent(condorg.AgentConfig{StateDir: dir, Selector: condorg.StaticSelector("127.0.0.1:1")})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Submit(condorg.SubmitRequest{Owner: "u", Executable: gram.Program("echo")}); err != nil {
			t.Fatal(err)
		}
		a.Close()
		return dir
	}
	for _, row := range []struct {
		name    string
		dir     func(t *testing.T) string
		refusal string // "" when the audit passes
	}{
		{"stamped", stamped, ""},
		{"stamped queue dir", func(t *testing.T) string { return filepath.Join(stamped(t), "queue") }, ""},
		{"unstamped", func(t *testing.T) string {
			dir := t.TempDir()
			ps, err := journal.OpenPartitionSet(filepath.Join(dir, "queue", "parts"), 0, journal.StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			ps.Close()
			return dir
		}, "holds queue/ but no FORMAT stamp"},
		{"wrong number", func(t *testing.T) string {
			dir := stamped(t)
			if err := os.WriteFile(filepath.Join(dir, "FORMAT"), []byte("2\n"), 0o600); err != nil {
				t.Fatal(err)
			}
			return dir
		}, `is stamped FORMAT "2"`},
	} {
		t.Run(row.name, func(t *testing.T) {
			var out, errs strings.Builder
			ok := auditVerify(row.dir(t), false, &out, &errs)
			if row.refusal == "" {
				if !ok || errs.Len() > 0 || !strings.Contains(out.String(), "history verified") {
					t.Fatalf("audit = %v\nstdout:\n%s\nstderr:\n%s", ok, out.String(), errs.String())
				}
				return
			}
			if ok || !strings.Contains(errs.String(), row.refusal) || out.Len() > 0 {
				t.Fatalf("audit = %v; want refused naming %q\nstdout:\n%s\nstderr:\n%s", ok, row.refusal, out.String(), errs.String())
			}
		})
	}
}
