package benchmarks

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestOperationsDocMatchesCLI guards docs/OPERATIONS.md against flag
// drift: every `-flag` the operator guide documents must actually be
// registered in cmd/condorg/main.go. Go-tool flags mentioned in repro
// commands (go test -race, -bench, ...) are exempt.
func TestOperationsDocMatchesCLI(t *testing.T) {
	doc, err := os.ReadFile("docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("cmd/condorg/main.go")
	if err != nil {
		t.Fatal(err)
	}

	goToolFlags := map[string]bool{
		"race": true, "v": true, "run": true, "bench": true,
		"benchtime": true, "o": true,
	}

	flags := map[string]bool{}
	// Inline and table mentions: `-stage-streams`
	for _, m := range regexp.MustCompile("`-([a-z][a-z0-9-]*)`").FindAllStringSubmatch(string(doc), -1) {
		flags[m[1]] = true
	}
	// Command lines in fenced blocks: bin/condorg q -agent ... -limit 20
	argRe := regexp.MustCompile(`\s-([a-z][a-z0-9-]*)`)
	for _, line := range strings.Split(string(doc), "\n") {
		if !strings.Contains(line, "condorg ") {
			continue
		}
		for _, m := range argRe.FindAllStringSubmatch(line, -1) {
			flags[m[1]] = true
		}
	}
	if len(flags) < 12 {
		t.Fatalf("only found %d documented flags — did the doc format change?", len(flags))
	}

	for name := range flags {
		if goToolFlags[name] {
			continue
		}
		// Flag registrations look like fs.String("listen", ...).
		reg := fmt.Sprintf("(%q,", name)
		if !strings.Contains(string(src), reg) {
			t.Errorf("docs/OPERATIONS.md documents -%s but cmd/condorg/main.go does not register it", name)
		}
	}
}

// TestWireFlagsDocumented guards the reverse direction for the wire-v2
// serve flags: each must be registered by the CLI *and* documented in the
// operator guide (the generic test above only catches doc→CLI drift).
func TestWireFlagsDocumented(t *testing.T) {
	doc, err := os.ReadFile("docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("cmd/condorg/main.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"batch-max-jobs", "batch-max-delay", "wire-codec"} {
		if !strings.Contains(string(src), fmt.Sprintf("(%q,", name)) {
			t.Errorf("cmd/condorg/main.go does not register -%s", name)
		}
		if !strings.Contains(string(doc), "`-"+name+"`") {
			t.Errorf("docs/OPERATIONS.md does not document -%s", name)
		}
	}
	// And the design doc must keep describing the protocol they configure.
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(design), "Wire protocol v2") {
		t.Error("DESIGN.md lost its Wire protocol v2 section")
	}
}

// TestHAFlagsDocumented guards the HA/standby surface the same way: the
// serve flags and the audit subcommand must be registered by the CLI and
// documented in the operator guide, and the design doc must keep the
// section describing the journal chain they rely on.
func TestHAFlagsDocumented(t *testing.T) {
	doc, err := os.ReadFile("docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("cmd/condorg/main.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ha", "standby", "lease-ttl", "standby-poll"} {
		if !strings.Contains(string(src), fmt.Sprintf("(%q,", name)) {
			t.Errorf("cmd/condorg/main.go does not register -%s", name)
		}
		if !strings.Contains(string(doc), "`-"+name+"`") {
			t.Errorf("docs/OPERATIONS.md does not document -%s", name)
		}
	}
	if !strings.Contains(string(src), `case "audit":`) {
		t.Error("cmd/condorg/main.go lost the audit subcommand")
	}
	if !strings.Contains(string(doc), "condorg audit verify") {
		t.Error("docs/OPERATIONS.md does not document `condorg audit verify`")
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(design), "Verifiable journal & hot-standby failover") {
		t.Error("DESIGN.md lost its verifiable journal / failover section")
	}
	// One queue topology and one peer generation: the documents must not
	// describe the retired alternatives as if they still existed.
	for _, gone := range []string{
		"Compatibility matrix", "keeps the single root store",
		"Cannot be combined with `-ha`", "`-1` keeps the single root store",
	} {
		if strings.Contains(string(design), gone) || strings.Contains(string(doc), gone) {
			t.Errorf("the docs still describe a retired mechanism: %q", gone)
		}
	}
}

// TestTenancyFlagsDocumented guards the multi-tenant surface: the serve
// tenancy flags and the gateway subcommand must be registered by the CLI
// and documented in the operator guide, and the design doc must keep the
// tenancy-model section describing the semantics they configure.
func TestTenancyFlagsDocumented(t *testing.T) {
	doc, err := os.ReadFile("docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("cmd/condorg/main.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"journal-partitions", "max-queued-per-owner", "max-active-per-owner",
		"submit-rate", "submit-burst", "max-payload-bytes", "users",
	} {
		if !strings.Contains(string(src), fmt.Sprintf("(%q,", name)) {
			t.Errorf("cmd/condorg/main.go does not register -%s", name)
		}
		if !strings.Contains(string(doc), "`-"+name+"`") {
			t.Errorf("docs/OPERATIONS.md does not document -%s", name)
		}
	}
	if !strings.Contains(string(src), `case "gateway":`) {
		t.Error("cmd/condorg/main.go lost the gateway subcommand")
	}
	if !strings.Contains(string(doc), "condorg gateway") {
		t.Error("docs/OPERATIONS.md does not document `condorg gateway`")
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(design), "Tenancy model") {
		t.Error("DESIGN.md lost its tenancy-model section")
	}
}

// TestGlideinFlagsDocumented guards the elastic-autoscaler surface: the
// serve glidein flags and the pool subcommand must be registered by the
// CLI and documented in the operator guide, and the design doc must keep
// the elastic-provisioning section describing the semantics they
// configure.
func TestGlideinFlagsDocumented(t *testing.T) {
	doc, err := os.ReadFile("docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("cmd/condorg/main.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"glidein", "glidein-min", "glidein-max", "glidein-jobs-per-pilot",
		"glidein-lease", "glidein-idle", "glidein-interval", "glidein-cpus",
	} {
		if !strings.Contains(string(src), fmt.Sprintf("(%q,", name)) {
			t.Errorf("cmd/condorg/main.go does not register -%s", name)
		}
		if !strings.Contains(string(doc), "`-"+name+"`") {
			t.Errorf("docs/OPERATIONS.md does not document -%s", name)
		}
	}
	if !strings.Contains(string(src), `case "pool":`) {
		t.Error("cmd/condorg/main.go lost the pool subcommand")
	}
	if !strings.Contains(string(doc), "condorg pool") {
		t.Error("docs/OPERATIONS.md does not document `condorg pool`")
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(design), "Elastic provisioning") {
		t.Error("DESIGN.md lost its elastic-provisioning section")
	}
}

// TestCredFlagsDocumented guards the credential-lifecycle surface: the
// serve MyProxy/renewal flags must be registered by the CLI and
// documented in the operator guide, the guide must keep the
// expired-proxy runbook, and the design doc must keep the section
// describing the renewal/re-delegation/scoping semantics they configure.
func TestCredFlagsDocumented(t *testing.T) {
	doc, err := os.ReadFile("docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("cmd/condorg/main.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"myproxy", "myproxy-user", "myproxy-pass", "myproxy-users",
		"cred-renew-lead", "cred-renew-jitter", "cred-renew-interval",
		"cred-renew-lifetime",
	} {
		if !strings.Contains(string(src), fmt.Sprintf("(%q,", name)) {
			t.Errorf("cmd/condorg/main.go does not register -%s", name)
		}
		if !strings.Contains(string(doc), "`-"+name+"`") {
			t.Errorf("docs/OPERATIONS.md does not document -%s", name)
		}
	}
	if !strings.Contains(string(doc), "### Credential lifecycle") {
		t.Error("docs/OPERATIONS.md lost its credential-lifecycle section")
	}
	if !strings.Contains(string(doc), "a proxy expired") {
		t.Error("docs/OPERATIONS.md lost the expired-proxy runbook")
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(design), "Credential lifecycle") {
		t.Error("DESIGN.md lost its credential-lifecycle section")
	}
}

// TestReadmeLinksOperationsDoc: the operator guide is reachable from the
// front page.
func TestReadmeLinksOperationsDoc(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), "docs/OPERATIONS.md") {
		t.Fatal("README.md does not link docs/OPERATIONS.md")
	}
}
