package benchmarks

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// surface is what an area's tests read: the operator guide, the design
// doc, and the CLI built from this checkout.
type surface struct {
	t           *testing.T
	ops, design string
	bin         string
}

// newSurface builds cmd/condorg and reads the two documents.
func newSurface(t *testing.T) *surface {
	t.Helper()
	read := func(path string) string {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	bin := filepath.Join(t.TempDir(), "condorg")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/condorg").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/condorg: %v\n%s", err, out)
	}
	return &surface{t: t, ops: read("docs/OPERATIONS.md"), design: read("DESIGN.md"), bin: bin}
}

var usageFlag = regexp.MustCompile(`(?m)^  -([a-z0-9-]+)`)

// flags returns the flags `condorg <cmd...> -h` lists — what the
// subcommand really registers. A subcommand that has no flag set of its
// own is an error.
func (s *surface) flags(cmd ...string) map[string]bool {
	s.t.Helper()
	out, _ := exec.Command(s.bin, append(cmd, "-h")...).CombinedOutput()
	if !strings.Contains(string(out), "Usage of "+strings.Join(cmd, " ")+":") {
		s.t.Fatalf("condorg %s -h is not that subcommand's usage:\n%s", strings.Join(cmd, " "), out)
	}
	set := map[string]bool{}
	for _, m := range usageFlag.FindAllStringSubmatch(string(out), -1) {
		set[m[1]] = true
	}
	return set
}

// live checks that each of cmd's flags is registered and has its
// `-flag` entry in the operator guide.
func (s *surface) live(cmd string, names ...string) {
	s.t.Helper()
	reg := s.flags(strings.Fields(cmd)...)
	for _, name := range names {
		if !reg[name] {
			s.t.Errorf("condorg %s does not register -%s", cmd, name)
		}
		if !strings.Contains(s.ops, "`-"+name+"`") {
			s.t.Errorf("docs/OPERATIONS.md does not document %s -%s", cmd, name)
		}
	}
}

// retired checks that none of serve's retired flags is registered or
// mentioned in either document.
func (s *surface) retired(names ...string) {
	s.t.Helper()
	reg := s.flags("serve")
	for _, name := range names {
		if reg[name] {
			s.t.Errorf("condorg serve still registers the retired -%s", name)
		}
		for doc, body := range map[string]string{"docs/OPERATIONS.md": s.ops, "DESIGN.md": s.design} {
			if strings.Contains(body, "-"+name+"`") || strings.Contains(body, "-"+name+" ") {
				s.t.Errorf("%s still documents the retired -%s", doc, name)
			}
		}
	}
}

// has checks that doc contains each of want.
func (s *surface) has(doc string, want ...string) {
	s.t.Helper()
	body := map[string]string{"docs/OPERATIONS.md": s.ops, "DESIGN.md": s.design}[doc]
	for _, w := range want {
		if !strings.Contains(body, w) {
			s.t.Errorf("%s lost %q", doc, w)
		}
	}
}

// TestWireFlagsDocumented guards the retired wire and staging knobs: one
// job is a batch of one on the one wire, and staged bytes ride its frame
// in fixed chunks, so nothing is left for these flags to select. The
// design doc keeps describing the protocol itself.
func TestWireFlagsDocumented(t *testing.T) {
	s := newSurface(t)
	s.retired("batch-max-jobs", "batch-max-delay", "wire-codec", "stage-chunk-size", "stage-streams", "no-metrics")
	s.has("DESIGN.md", "Wire protocol v2")
}

// TestHAFlagsDocumented guards the HA/standby surface: the serve flags and
// the audit subcommand are registered and documented, the design doc keeps
// the section on the journal chain they rely on, and the retired
// alternatives (a standby poll knob, a single-store topology) are not
// described as if they still existed.
func TestHAFlagsDocumented(t *testing.T) {
	s := newSurface(t)
	s.live("serve", "ha", "standby", "lease-ttl")
	s.live("audit verify", "state", "json")
	s.retired("standby-poll")
	s.has("docs/OPERATIONS.md", "condorg audit verify")
	s.has("DESIGN.md", "Verifiable journal & hot-standby failover")
	for _, gone := range []string{
		"Compatibility matrix", "keeps the single root store", "Cannot be combined with `-ha`",
	} {
		if strings.Contains(s.design, gone) || strings.Contains(s.ops, gone) {
			t.Errorf("the docs still describe a retired mechanism: %q", gone)
		}
	}
}

// TestTenancyFlagsDocumented guards the multi-tenant surface: the serve
// tenancy flags and the gateway subcommand are registered and documented,
// and the design doc keeps the tenancy-model section.
func TestTenancyFlagsDocumented(t *testing.T) {
	s := newSurface(t)
	s.live("serve",
		"journal-partitions", "max-queued-per-owner", "max-active-per-owner",
		"submit-rate", "submit-burst", "max-payload-bytes")
	s.live("gateway", "listen", "agent", "users")
	s.has("docs/OPERATIONS.md", "condorg gateway")
	s.has("DESIGN.md", "Tenancy model")
}

// TestGlideinFlagsDocumented guards the elastic-autoscaler surface: the
// serve glidein flags and the pool subcommand are registered and
// documented, the per-pilot job count stays derived rather than a flag,
// and the design doc keeps the elastic-provisioning section.
func TestGlideinFlagsDocumented(t *testing.T) {
	s := newSurface(t)
	s.live("serve",
		"glidein", "glidein-min", "glidein-max", "glidein-lease",
		"glidein-idle", "glidein-interval", "glidein-cpus")
	s.retired("glidein-jobs-per-pilot")
	s.flags("pool")
	s.has("docs/OPERATIONS.md", "condorg pool")
	s.has("DESIGN.md", "Elastic provisioning")
}

// TestCredFlagsDocumented guards the credential-lifecycle surface: the
// MyProxy bindings file and renewal flags are registered and documented,
// the single-binding flags it replaced are gone, the guide keeps the
// expired-proxy runbook, and the design doc keeps the section on
// renewal, re-delegation and scoping.
func TestCredFlagsDocumented(t *testing.T) {
	s := newSurface(t)
	s.live("serve",
		"myproxy-users", "cred-renew-lead", "cred-renew-jitter",
		"cred-renew-interval", "cred-renew-lifetime")
	s.retired("myproxy", "myproxy-user", "myproxy-pass")
	s.has("docs/OPERATIONS.md", "### Credential lifecycle", "a proxy expired")
	s.has("DESIGN.md", "Credential lifecycle")
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
