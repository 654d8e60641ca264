// Command condorg is the user-facing Condor-G tool: `condorg serve` runs
// the computation-management agent, and the remaining subcommands
// (submit, q, status, wait, rm, hold, release, log, stdout, trace,
// metrics, health) talk to a running agent — the §4.1 "API and command
// line tools that allow the user to perform job management operations"
// with the look and feel of a local resource manager.
//
// The agent is multi-tenant: jobs are owner-sharded across journal
// partitions (-journal-partitions), admission is governed by per-owner
// quotas (-max-queued-per-owner, -max-active-per-owner) and a token
// bucket (-submit-rate, -submit-burst), and `condorg gateway` fronts the
// control endpoint with an HTTP API that maps bearer tokens to owners.
//
// The agent watches every owner's proxy: a `-myproxy-users` bindings file
// (per-owner lines plus an optional `*` default) enables proactive
// renewal — expiring proxies are re-fetched ahead of expiry
// (-cred-renew-lead, spread per owner by -cred-renew-jitter) and
// re-delegated in-band to the running jobs' managers, with no hold/release
// cycle.
//
// `condorg serve -standby ADDR` runs the same binary as a hot standby: it
// tails the hash-chained journal stream of every partition of the primary
// (a `serve -ha`) into its own state directory and promotes itself to a
// full agent when the primary's lease expires. `condorg audit verify
// -state DIR` proves a state directory's journal history offline — every
// owner partition — exiting non-zero (naming the damaged segment and chain
// sequence) on any corruption.
//
// Job-op failures map the control plane's fault classes onto exit codes:
// transient failures (agent restarting, site unreachable) exit 75
// (EX_TEMPFAIL, "retry me"), everything else exits 1.
//
// Usage:
//
//	condorg serve -listen 127.0.0.1:7100 -sites host:p1,host:p2 [-mds addr] [-state dir] [-sync] [-ha] [-standby addr] [-lease-ttl d] [-max-submit-retries n] [-per-site-inflight n] [-max-inflight n] [-no-stage] [-journal-partitions n] [-max-queued-per-owner n] [-max-active-per-owner n] [-submit-rate r] [-submit-burst n] [-max-payload-bytes n] [-glidein ...] [-myproxy-users file] [-cred-renew-lead d] [-cred-renew-jitter d] [-cred-renew-interval d] [-cred-renew-lifetime d]
//	condorg gateway -listen 127.0.0.1:8080 -agent 127.0.0.1:7100 -users file
//	condorg submit -agent 127.0.0.1:7100 [-owner u] [-site addr] program [args...]
//	condorg q      -agent 127.0.0.1:7100 [-owner u] [-state idle,running] [-limit n] [-after cursor]
//	condorg status -agent 127.0.0.1:7100 <job-id>
//	condorg wait   -agent 127.0.0.1:7100 <job-id>
//	condorg rm     -agent 127.0.0.1:7100 <job-id>
//	condorg hold   -agent 127.0.0.1:7100 <job-id> [reason]
//	condorg release -agent 127.0.0.1:7100 <job-id>
//	condorg log    -agent 127.0.0.1:7100 <job-id>
//	condorg stdout -agent 127.0.0.1:7100 <job-id>
//	condorg trace  -agent 127.0.0.1:7100 <job-id>
//	condorg metrics -agent 127.0.0.1:7100
//	condorg health  -agent 127.0.0.1:7100
//	condorg audit verify -state dir [-json]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"condorg/internal/broker"
	"condorg/internal/condor"
	"condorg/internal/condorg"
	"condorg/internal/credmgr"
	"condorg/internal/faultclass"
	"condorg/internal/gateway"
	"condorg/internal/glidein"
	"condorg/internal/gridftp"
	"condorg/internal/journal"
	"condorg/internal/mds"
	"condorg/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	args := os.Args[2:]
	switch cmd {
	case "serve":
		serve(args)
	case "gateway":
		gatewayCmd(args)
	case "submit":
		submit(args)
	case "sites":
		listSites(args)
	case "q":
		queue(args)
	case "metrics":
		metrics(args)
	case "health":
		health(args)
	case "pool":
		pool(args)
	case "audit":
		audit(args)
	case "status", "wait", "rm", "hold", "release", "log", "stdout", "trace":
		jobOp(cmd, args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: condorg <serve|gateway|submit|q|status|wait|rm|hold|release|log|stdout|trace|metrics|health|pool|audit|sites> [flags]")
	os.Exit(2)
}

// audit verifies a state directory's journal history offline: the
// directory's format stamp by the agent's own rule, then every frame CRC,
// every hash-chain link, every segment boundary, and the snapshot anchor.
// Exits 1 — naming the damaged segment and chain sequence — on a refused
// stamp, any corruption, or leftover quarantine evidence.
func audit(args []string) {
	if len(args) < 1 || args[0] != "verify" {
		fmt.Fprintln(os.Stderr, "usage: condorg audit verify -state dir [-json]")
		os.Exit(2)
	}
	var dir string
	var asJSON bool
	auditFlags(&dir, &asJSON).Parse(args[1:])
	if dir == "" {
		log.Fatal("condorg audit verify: need -state")
	}
	if !auditVerify(dir, asJSON, os.Stdout, os.Stderr) {
		os.Exit(1)
	}
}

// auditVerify audits dir, an agent state directory or its queue directory,
// writing the report to out and each failure to errs, and reports whether
// the directory is one the agent opens with a clean history.
func auditVerify(dir string, asJSON bool, out, errs io.Writer) bool {
	// Accept either the agent StateDir or its queue directory directly.
	state, queue := dir, filepath.Join(dir, "queue")
	if st, err := os.Stat(filepath.Join(dir, "parts")); err == nil && st.IsDir() {
		state, queue = filepath.Dir(filepath.Clean(dir)), dir
	}
	if _, err := condorg.CheckStateFormat(state); err != nil {
		fmt.Fprintln(errs, "condorg audit:", err)
		return false
	}
	// The queue is many independent stores, one per owner bucket. Each
	// carries its own snapshot anchor and hash chain; all must verify.
	ok := true
	for _, d := range journal.PartitionDirs(filepath.Join(queue, "parts")) {
		rep, verr := journal.VerifyDir(d)
		if asJSON {
			raw, _ := json.MarshalIndent(rep, "", "  ")
			fmt.Fprintln(out, string(raw))
		} else {
			fmt.Fprintf(out, "== %s ==\n", d)
			fmt.Fprintf(out, "snapshot: %d keys, chain anchor seq %d\n", rep.Keys, rep.Snapshot.Seq)
			for _, seg := range rep.Segments {
				status := "ok"
				if seg.Err != "" {
					status = "CORRUPT: " + seg.Err
				}
				fmt.Fprintf(out, "%-40s %7d records  seq %d..%d  %s\n", seg.Path, seg.Records, seg.First, seg.Last, status)
			}
			for _, q := range rep.Quarantined {
				fmt.Fprintf(out, "%-40s QUARANTINED (inspect and remove to reopen)\n", q)
			}
			fmt.Fprintf(out, "verified chain head: seq %d\n", rep.Head.Seq)
		}
		if verr != nil {
			fmt.Fprintln(errs, "condorg audit:", verr)
			ok = false
		} else if !rep.OK() {
			fmt.Fprintln(errs, "condorg audit: history not clean (quarantined segments present)")
			ok = false
		}
	}
	if ok {
		fmt.Fprintln(out, "history verified: every record extends the hash chain")
	}
	return ok
}

// auditFlags registers `condorg audit verify`'s flags.
func auditFlags(state *string, asJSON *bool) *flag.FlagSet {
	fs := flag.NewFlagSet("audit verify", flag.ExitOnError)
	fs.StringVar(state, "state", "", "agent state directory (or its queue directory)")
	fs.BoolVar(asJSON, "json", false, "emit the full report as JSON")
	return fs
}

// gatewayCmd runs the HTTP gateway: bearer-token users multiplexed onto
// one agent's control endpoint. The users file holds one "token owner"
// pair per line (blank lines and #-comments ignored). This mode fronts
// an open (trusted) control endpoint; embedding gateway.New with
// per-user GSI credentials gives the fully authenticated posture.
func gatewayCmd(args []string) {
	var listen, agent, usersFile string
	gatewayFlags(&listen, &agent, &usersFile).Parse(args)
	if usersFile == "" {
		log.Fatal("condorg gateway: need -users")
	}
	raw, err := os.ReadFile(usersFile)
	if err != nil {
		log.Fatal(err)
	}
	users := make(map[string]gateway.User)
	for i, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			log.Fatalf("condorg gateway: %s:%d: want \"token owner\", got %q", usersFile, i+1, line)
		}
		users[fields[0]] = gateway.User{Owner: fields[1]}
	}
	gw, err := gateway.New(listen, gateway.Config{Agent: agent, Users: users})
	if err != nil {
		log.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("condorg gateway: %d users, HTTP %s -> agent %s\n", len(users), gw.Addr(), agent)
	go func() {
		<-sig
		fmt.Println("condorg gateway: shutting down")
		gw.Close()
	}()
	if err := gw.Serve(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
}

// gatewayFlags registers `condorg gateway`'s flags.
func gatewayFlags(listen, agent, usersFile *string) *flag.FlagSet {
	fs := flag.NewFlagSet("gateway", flag.ExitOnError)
	fs.StringVar(listen, "listen", "127.0.0.1:0", "HTTP listen address")
	fs.StringVar(agent, "agent", "127.0.0.1:7100", "agent control address")
	fs.StringVar(usersFile, "users", "", "path to the token→owner users file")
	return fs
}

// die reports a job-op failure and exits with a class-aware code: 75
// (EX_TEMPFAIL) for transient faults a wrapper script should retry, 1
// for everything else.
func die(err error) {
	fmt.Fprintln(os.Stderr, "condorg:", err)
	if faultclass.ClassOf(err) == faultclass.Transient {
		os.Exit(75)
	}
	os.Exit(1)
}

// listSites queries an MDS directory for advertised resources — what the
// personal broker sees.
func listSites(args []string) {
	fs := flag.NewFlagSet("sites", flag.ExitOnError)
	mdsAddr := fs.String("mds", "", "MDS directory address")
	constraint := fs.String("constraint", "", "ClassAd constraint expression")
	fs.Parse(args)
	if *mdsAddr == "" {
		log.Fatal("condorg sites: need -mds")
	}
	c := mds.NewClient(*mdsAddr, nil, nil)
	defer c.Close()
	ads, err := c.Query(*constraint)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s %-22s %6s %6s %6s %8s %-10s\n",
		"NAME", "GATEKEEPER", "CPUS", "FREE", "QUEUE", "COST", "POLICY")
	for _, ad := range ads {
		fmt.Printf("%-12s %-22s %6d %6d %6d %8.2f %-10s\n",
			ad.EvalString("Name", "?"),
			ad.EvalString("GatekeeperAddr", "?"),
			ad.EvalInt("Cpus", 0),
			ad.EvalInt("FreeCpus", 0),
			ad.EvalInt("QueueDepth", 0),
			ad.EvalReal("Cost", 0),
			ad.EvalString("Policy", "?"))
	}
}

// serveConfig is what `condorg serve` parsed from its command line: the
// agent's config plus the settings of what serve runs beside the agent.
type serveConfig struct {
	agent    condorg.AgentConfig
	listen   string
	sites    []string
	mds      string
	standby  string
	leaseTTL time.Duration
	glidein  bool
	pool     glidein.ProvisionerConfig // the -glidein-* settings
	cred     credmgr.MonitorConfig     // the -cred-renew-* settings
	users    string                    // -myproxy-users; set starts the credential monitor
}

// serveFlags registers serve's flags on a fresh FlagSet, bound to c. The
// agent flags are bound to c.agent, which starts as DefaultAgentConfig, so
// -h prints the defaults NewAgent would otherwise fill in.
func serveFlags(c *serveConfig) *flag.FlagSet {
	c.agent = condorg.DefaultAgentConfig()
	a := &c.agent
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.Func("sites", "comma-separated gatekeeper addresses (round-robin)", func(v string) error {
		c.sites = strings.FieldsFunc(v, func(r rune) bool { return r == ',' })
		return nil
	})
	fs.StringVar(&c.listen, "listen", "127.0.0.1:0", "control endpoint address")
	fs.StringVar(&c.mds, "mds", "", "MDS directory for brokered site selection")
	fs.StringVar(&a.StateDir, "state", "", "agent state directory (default: temp)")
	fs.BoolVar(&a.Journal.Sync, "sync", false, "fsync the job queue journal before acknowledging submits (group commit)")
	fs.IntVar(&a.Retry.MaxSubmitRetries, "max-submit-retries", a.Retry.MaxSubmitRetries, "hold a job after this many failed submission attempts")
	fs.IntVar(&a.Pipeline.PerSiteInFlight, "per-site-inflight", a.Pipeline.PerSiteInFlight, "concurrent remote ops per gatekeeper pipeline")
	fs.IntVar(&a.Pipeline.MaxInFlight, "max-inflight", a.Pipeline.MaxInFlight, "concurrent remote ops agent-wide across all sites")
	fs.BoolVar(&a.Stage.Disabled, "no-stage", false, "disable executable pre-staging; sites pull executables over GASS")
	fs.BoolVar(&a.HA.Enabled, "ha", false, "hot-standby support: replicate job payloads through the journal and wait for the follower's ack on submits")
	fs.StringVar(&c.standby, "standby", "", "run as a hot standby tailing the primary at this control address; take over when its lease expires")
	fs.DurationVar(&c.leaseTTL, "lease-ttl", 0, "standby: declare the primary dead after this long without contact; polls at a third of it (0 = default 3s)")
	fs.IntVar(&a.Tenancy.Partitions, "journal-partitions", journal.DefaultPartitions, "owner hash buckets the job journal is sharded across (pinned at first start)")
	fs.IntVar(&a.Tenancy.MaxQueuedPerOwner, "max-queued-per-owner", 0, "reject a submit once the owner has this many non-terminal jobs (0 = unlimited)")
	fs.IntVar(&a.Tenancy.MaxActivePerOwner, "max-active-per-owner", 0, "reject a submit once the owner has this many non-held active jobs (0 = unlimited)")
	fs.Float64Var(&a.Tenancy.SubmitRate, "submit-rate", 0, "per-owner submit token-bucket refill rate in submits/second (0 = unlimited)")
	fs.IntVar(&a.Tenancy.SubmitBurst, "submit-burst", 0, "per-owner submit token-bucket depth (min 1 when -submit-rate is set)")
	fs.IntVar(&a.Tenancy.MaxPayloadBytes, "max-payload-bytes", 0, "reject a submit whose executable+stdin exceed this many bytes; oversized control envelopes are refused before decode (0 = unlimited)")
	fs.BoolVar(&c.glidein, "glidein", false, "run the elastic GlideIn autoscaler: pilots submitted to the -sites hosts form the schedulable pool and jobs bind to pilots as they come up (delayed binding)")
	fs.IntVar(&c.pool.MinPilots, "glidein-min", 0, "minimum pilots the autoscaler keeps alive")
	fs.IntVar(&c.pool.MaxPilots, "glidein-max", 0, "maximum pilots (0 = twice the host-site count)")
	fs.DurationVar(&c.pool.Lease, "glidein-lease", 0, "pilot lease: hard lifetime before self-retirement (0 = default 1h)")
	fs.DurationVar(&c.pool.IdleTimeout, "glidein-idle", 0, "pilot idle window before self-retirement (0 = default 1m)")
	fs.DurationVar(&c.pool.Interval, "glidein-interval", 0, "autoscaler reconciliation interval (0 = default 1s)")
	fs.IntVar(&c.pool.PilotCpus, "glidein-cpus", 0, "CPUs each pilot's private gatekeeper schedules, and so the backlog one pilot absorbs (0 = default 4)")
	fs.StringVar(&c.users, "myproxy-users", "", "MyProxy bindings file: one \"owner user pass [addr]\" line per owner; owner * is the default binding")
	fs.DurationVar(&c.cred.RenewLead, "cred-renew-lead", 0, "renew an owner's proxy once less than this lifetime remains (0 = warn threshold)")
	fs.DurationVar(&c.cred.RenewJitter, "cred-renew-jitter", 0, "deterministic per-owner spread added to the renewal lead so a fleet of renewals staggers (0 = none)")
	fs.DurationVar(&c.cred.Interval, "cred-renew-interval", 0, "credential monitor scan period (0 = default 1m)")
	fs.DurationVar(&c.cred.RenewLifetime, "cred-renew-lifetime", 0, "lifetime requested for auto-renewed proxies (0 = default 12h)")
	return fs
}

// parseServe turns serve's command line into its configs, reading the
// -myproxy-users file and rejecting combinations serve cannot run.
func parseServe(args []string) (serveConfig, error) {
	var c serveConfig
	if err := serveFlags(&c).Parse(args); err != nil {
		return c, err
	}
	c.agent.DeferBinding = c.glidein
	switch {
	case c.agent.Tenancy.Partitions <= 0:
		return c, fmt.Errorf("-journal-partitions %d: the count must be positive", c.agent.Tenancy.Partitions)
	case c.glidein && c.sites == nil:
		return c, errors.New("-glidein needs -sites (the hosts pilots are submitted to)")
	case c.glidein && c.standby != "":
		return c, errors.New("-glidein is a primary-agent feature and cannot be combined with -standby")
	case c.sites == nil && c.mds == "":
		return c, errors.New("need -sites or -mds")
	}
	if c.users != "" {
		var err error
		c.agent.Tenancy.MyProxy, c.agent.Tenancy.MyProxyDefault, err = parseMyProxyUsers(c.users)
		if err != nil {
			return c, err
		}
	}
	return c, nil
}

func serve(args []string) {
	c, err := parseServe(args)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		log.Fatal("condorg serve: ", err)
	}

	var adaptive *broker.Adaptive
	switch {
	case c.glidein:
		// The schedulable pool is the set of pilot gatekeepers; it starts
		// empty and the provisioner registers pilots as they come up, so
		// binding is deferred until capacity exists.
		adaptive = broker.NewAdaptive(nil)
		c.agent.Selector = adaptive
	case c.mds != "":
		b, err := broker.NewMDSBroker(c.mds, "", "")
		if err != nil {
			log.Fatal(err)
		}
		defer b.Close()
		c.agent.Selector = b
	default:
		c.agent.Selector = &condorg.RoundRobinSelector{Sites: c.sites}
	}

	stateDir := c.agent.StateDir
	if stateDir == "" {
		if stateDir, err = os.MkdirTemp("", "condorg-agent-*"); err != nil {
			log.Fatal(err)
		}
		c.agent.StateDir = stateDir
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	if c.standby != "" {
		sb, err := condorg.NewStandby(condorg.StandbyConfig{
			Primary:  c.standby,
			StateDir: stateDir,
			LeaseTTL: c.leaseTTL,
			Journal:  c.agent.Journal,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("condorg standby: tailing %s (state %s)\n", c.standby, stateDir)
		select {
		case <-sig:
			fmt.Println("condorg standby: shutting down")
			sb.Close()
			return
		case <-sb.TakeoverCh():
			fmt.Println("condorg standby: replication from the primary has ended; taking over")
		}
		agent, err := sb.Takeover(c.agent)
		if err != nil {
			log.Fatal(err)
		}
		defer agent.Close()
		ctl, err := condorg.NewControlServerAddr(agent, c.listen)
		if err != nil {
			log.Fatal(err)
		}
		defer ctl.Close()
		defer startCredMonitor(agent, c)()
		fmt.Printf("condorg agent (promoted): control endpoint %s (state %s)\n", ctl.Addr(), stateDir)
		<-sig
		fmt.Println("condorg agent: shutting down")
		return
	}

	agent, err := condorg.NewAgent(c.agent)
	if err != nil {
		log.Fatal(err)
	}
	defer agent.Close()
	defer startCredMonitor(agent, c)()

	ctlCfg := condorg.ControlConfig{}
	if c.glidein {
		prov, stop, err := startGlidein(agent, c.pool, c.sites, adaptive, stateDir)
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
		ctlCfg.Pool = func() condorg.CtlPoolResp { return poolResp(prov.Status()) }
	}
	ctl, err := condorg.NewControlServerConfig(agent, c.listen, ctlCfg)
	if err != nil {
		log.Fatal(err)
	}
	defer ctl.Close()
	fmt.Printf("condorg agent: control endpoint %s (state %s)\n", ctl.Addr(), stateDir)
	<-sig
	fmt.Println("condorg agent: shutting down")
}

// startCredMonitor runs the multi-tenant credential monitor over the agent
// when a -myproxy-users file is configured, and returns its stop function
// (a no-op otherwise — the monitor's warn/hold ladder is pointless on an
// agent that holds no credentials at all).
func startCredMonitor(agent *condorg.Agent, c serveConfig) func() {
	if c.users == "" {
		return func() {}
	}
	mcfg := c.cred
	mcfg.Agent = agent
	mon := credmgr.NewMonitor(mcfg)
	mon.Start()
	fmt.Println("condorg agent: credential monitor watching all owners")
	return mon.Stop
}

// parseMyProxyUsers reads the MyProxy bindings file: one "owner user pass
// [addr]" line per owner (blank lines and #-comments ignored). Owner * is
// the default binding for owners not listed and must name its server; a
// listed owner without an addr renews from the default binding's server,
// so such a line needs a * line somewhere in the file.
func parseMyProxyUsers(path string) (map[string]condorg.MyProxyBinding, *condorg.MyProxyBinding, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	bindings := make(map[string]condorg.MyProxyBinding)
	var def *condorg.MyProxyBinding
	noAddr := "" // file:line of the first owner line that names no server
	for i, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 && len(fields) != 4 {
			return nil, nil, fmt.Errorf("%s:%d: want \"owner user pass [addr]\", got %q", path, i+1, line)
		}
		b := condorg.MyProxyBinding{User: fields[1], Pass: fields[2]}
		if len(fields) == 4 {
			b.Addr = fields[3]
		}
		if fields[0] == "*" {
			if b.Addr == "" {
				return nil, nil, fmt.Errorf("%s:%d: the default (*) binding must name its MyProxy server addr", path, i+1)
			}
			def = &b
			continue
		}
		if b.Addr == "" && noAddr == "" {
			noAddr = fmt.Sprintf("%s:%d", path, i+1)
		}
		bindings[fields[0]] = b
	}
	if noAddr != "" && def == nil {
		return nil, nil, fmt.Errorf("%s: no MyProxy server addr, and no default (*) line supplies one; this owner would never be renewed", noAddr)
	}
	for owner, b := range bindings {
		if b.Addr == "" {
			b.Addr = def.Addr
			bindings[owner] = b
		}
	}
	return bindings, def, nil
}

// startGlidein brings up the elastic-pool substrate inside the agent
// process — the personal-pool Collector pilots advertise to and the
// GridFTP repository they fetch the daemon payload from — and starts the
// autoscaler over the host sites with the -glidein-* settings in pool. The
// returned stop function drains the pool (every pilot also self-retires via
// lease/idle if the agent dies without calling it).
func startGlidein(agent *condorg.Agent, pool glidein.ProvisionerConfig, hostSites []string, registry *broker.Adaptive, stateDir string) (*glidein.Provisioner, func(), error) {
	coll, err := condor.NewCollector(condor.CollectorOptions{})
	if err != nil {
		return nil, nil, fmt.Errorf("condorg serve: glidein collector: %w", err)
	}
	repoDir := filepath.Join(stateDir, "glidein-repo")
	if err := os.MkdirAll(repoDir, 0o700); err != nil {
		coll.Close()
		return nil, nil, err
	}
	repo, err := gridftp.NewServer(repoDir, gridftp.ServerOptions{})
	if err != nil {
		coll.Close()
		return nil, nil, fmt.Errorf("condorg serve: glidein repo: %w", err)
	}
	ftp := gridftp.NewClient(nil, nil, 2)
	err = ftp.Put(repo.Addr(), glidein.StartdBlob, []byte("condor_startd v6.3 payload"))
	ftp.Close()
	if err != nil {
		coll.Close()
		repo.Close()
		return nil, nil, fmt.Errorf("condorg serve: seed glidein repo: %w", err)
	}

	pool.HostSites = make(map[string]string, len(hostSites))
	for _, addr := range hostSites {
		pool.HostSites[addr] = addr
	}
	pool.CollectorAddr = coll.Addr()
	pool.RepoAddr = repo.Addr()
	pool.Demand = agent.Backlog
	pool.HostHealthy = func(gk string) bool {
		for _, row := range agent.PipelineHealth() {
			if row.Site == gk && row.Breaker == "open" {
				return false
			}
		}
		return true
	}
	pool.Stage = func(addr string) (hits, misses int64) {
		for _, row := range agent.PipelineHealth() {
			if row.Site == addr {
				hits += int64(row.StageHits)
				misses += int64(row.StageMisses)
			}
		}
		return hits, misses
	}
	pool.Registry = registry
	pool.SiteRetired = agent.SiteRetired
	pool.Obs = agent.Obs()
	prov, err := glidein.NewProvisioner(pool)
	if err != nil {
		coll.Close()
		repo.Close()
		return nil, nil, err
	}
	prov.Start()
	fmt.Printf("condorg agent: glidein autoscaler over %d host sites (collector %s, repo %s)\n",
		len(hostSites), coll.Addr(), repo.Addr())
	return prov, func() {
		prov.Drain()
		prov.Close()
		coll.Close()
		repo.Close()
	}, nil
}

// poolResp adapts the provisioner's snapshot to the ctl.v1 pool view.
func poolResp(st glidein.PoolStatus) condorg.CtlPoolResp {
	resp := condorg.CtlPoolResp{
		Target:    st.Target,
		Demand:    st.Demand,
		Submitted: st.Submitted,
		Retired:   st.Retired,
	}
	for _, p := range st.Pilots {
		resp.Pilots = append(resp.Pilots, condorg.CtlPoolPilot{
			Slot:       p.Slot,
			HostSite:   p.HostSite,
			Gatekeeper: p.Gatekeeper,
			ActiveJobs: p.ActiveJobs,
			State:      p.State,
		})
	}
	return resp
}

// dial adds -agent to fs, parses args, and returns a client for the agent
// plus the remaining arguments.
func dial(fs *flag.FlagSet, args []string) (*condorg.ControlClient, []string) {
	agent := fs.String("agent", "127.0.0.1:7100", "agent control address")
	fs.Parse(args)
	return condorg.NewControlClient(*agent), fs.Args()
}

func submit(args []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	owner := fs.String("owner", "user", "submitting user")
	site := fs.String("site", "", "pin to one gatekeeper address")
	cli, rest := dial(fs, args)
	defer cli.Close()
	if len(rest) < 1 {
		log.Fatal("condorg submit: need a program name")
	}
	id, err := cli.Submit(condorg.CtlSubmit{
		Owner:   *owner,
		Program: rest[0],
		Args:    rest[1:],
		Site:    *site,
	})
	if err != nil {
		die(err)
	}
	fmt.Println(id)
}

// queue lists jobs with the v1 filter: by owner, by state, paginated.
func queue(args []string) {
	fs := flag.NewFlagSet("q", flag.ExitOnError)
	owner := fs.String("owner", "", "only this owner's jobs")
	stateNames := fs.String("state", "", "comma-separated states (idle,running,completed,failed,held,removed)")
	limit := fs.Int("limit", 0, "page size (0 = everything)")
	after := fs.String("after", "", "resume after this cursor (from the \"more:\" line of the previous page)")
	cli, _ := dial(fs, args)
	defer cli.Close()

	var states []condorg.JobState
	if *stateNames != "" {
		for _, name := range strings.Split(*stateNames, ",") {
			st, err := condorg.ParseJobState(strings.TrimSpace(name))
			if err != nil {
				log.Fatalf("condorg q: %v", err)
			}
			states = append(states, st)
		}
	}
	jobs, next, err := cli.QueueFiltered(condorg.CtlQueueReq{
		Owner:  *owner,
		States: states,
		Limit:  *limit,
		After:  *after,
	})
	if err != nil {
		die(err)
	}
	fmt.Printf("%-8s %-10s %-10s %-22s %s\n", "ID", "OWNER", "STATE", "SITE", "DETAIL")
	for _, j := range jobs {
		detail := j.Error
		if j.State == condorg.Held {
			detail = j.HoldReason
		}
		fmt.Printf("%-8s %-10s %-10s %-22s %s\n", j.ID, j.Owner, j.State, j.Site, detail)
	}
	if next != "" {
		fmt.Printf("more: condorg q -after %s\n", next)
	}
}

// metrics dumps the agent's metric registry.
func metrics(args []string) {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit JSON instead of text")
	cli, _ := dial(fs, args)
	defer cli.Close()
	ms, err := cli.Metrics()
	if err != nil {
		die(err)
	}
	if *asJSON {
		fmt.Println(obs.DumpJSON(ms))
		return
	}
	fmt.Print(obs.DumpText(ms))
}

// health prints the agent's per-owner, per-site breaker and pipeline view.
func health(args []string) {
	cli, _ := dial(flag.NewFlagSet("health", flag.ExitOnError), args)
	defer cli.Close()
	resp, err := cli.HealthFull()
	if err != nil {
		die(err)
	}
	if ha := resp.HA; ha != nil && ha.Enabled {
		armed := "follower not yet acked"
		if ha.SyncArmed {
			armed = "sync replication armed"
		}
		fmt.Printf("HA: %d records journaled, follower acked %d (%s)\n", ha.ChainSeq, ha.FollowerAcked, armed)
	}
	fmt.Printf("%-10s %-22s %-10s %6s %8s %9s %10s %11s\n",
		"OWNER", "SITE", "BREAKER", "FAILS", "QUEUED", "INFLIGHT", "STAGE-HIT", "STAGE-MISS")
	for _, s := range resp.Sites {
		fmt.Printf("%-10s %-22s %-10s %6d %8d %9d %10d %11d\n",
			s.Owner, s.Site, s.Breaker, s.Fails, s.Queued, s.InFlight, s.StageHits, s.StageMisses)
	}
}

// pool prints the elastic glidein autoscaler's view: target vs. actual
// pool size and every tracked pilot.
func pool(args []string) {
	cli, _ := dial(flag.NewFlagSet("pool", flag.ExitOnError), args)
	defer cli.Close()
	resp, err := cli.Pool()
	if err != nil {
		die(err)
	}
	if !resp.Enabled {
		fmt.Println("glidein autoscaler: not running (start the agent with -glidein)")
		return
	}
	fmt.Printf("pool: %d pilots, target %d (demand %d jobs; %d submitted, %d retired all-time)\n",
		len(resp.Pilots), resp.Target, resp.Demand, resp.Submitted, resp.Retired)
	fmt.Printf("%-28s %-22s %-22s %-9s %6s\n", "SLOT", "HOST", "GATEKEEPER", "STATE", "ACTIVE")
	for _, p := range resp.Pilots {
		fmt.Printf("%-28s %-22s %-22s %-9s %6d\n", p.Slot, p.HostSite, p.Gatekeeper, p.State, p.ActiveJobs)
	}
}

func jobOp(cmd string, args []string) {
	cli, rest := dial(flag.NewFlagSet(cmd, flag.ExitOnError), args)
	defer cli.Close()
	if len(rest) < 1 {
		log.Fatalf("condorg %s: need a job id", cmd)
	}
	id := rest[0]
	switch cmd {
	case "status":
		info, err := cli.Status(id)
		if err != nil {
			die(err)
		}
		fmt.Printf("%s: %s (site %s, resubmits %d, submit retries %d)\n",
			info.ID, info.State, info.Site, info.Resubmits, info.SubmitRetries)
		if info.State == condorg.Held && info.HoldReason != "" {
			fmt.Printf("  hold reason: %s\n", info.HoldReason)
		}
		if len(info.CancelPending) > 0 {
			fmt.Printf("  unacknowledged cancels: %d\n", len(info.CancelPending))
		}
		if info.Error != "" {
			fmt.Printf("  error: %s\n", info.Error)
		}
	case "wait":
		info, err := cli.Wait(id, time.Hour)
		if err != nil {
			die(err)
		}
		fmt.Printf("%s: %s\n", info.ID, info.State)
		if info.State != condorg.Completed {
			os.Exit(1)
		}
	case "rm":
		if err := cli.Remove(id); err != nil {
			die(err)
		}
	case "hold":
		reason := "held by user"
		if len(rest) > 1 {
			reason = strings.Join(rest[1:], " ")
		}
		if err := cli.Hold(id, reason); err != nil {
			die(err)
		}
	case "release":
		if err := cli.Release(id); err != nil {
			die(err)
		}
	case "log":
		events, err := cli.Log(id)
		if err != nil {
			die(err)
		}
		for _, e := range events {
			fmt.Printf("%s %-16s %s\n", e.Time.Format("15:04:05.000"), e.Code, e.Text)
		}
	case "stdout":
		data, err := cli.Stdout(id)
		if err != nil {
			die(err)
		}
		os.Stdout.Write(data)
	case "trace":
		tl, err := cli.Trace(id)
		if err != nil {
			die(err)
		}
		for _, ev := range tl.Events {
			line := fmt.Sprintf("%4d %s %-14s", ev.Seq, ev.Wall.Format("15:04:05.000"), ev.Phase)
			if ev.Site != "" {
				line += " site=" + ev.Site
			}
			if ev.Class != "" {
				line += " class=" + ev.Class
			}
			if ev.Detail != "" {
				line += "  " + ev.Detail
			}
			fmt.Println(line)
		}
	}
}
