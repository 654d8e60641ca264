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
// The agent watches every owner's proxy: `-myproxy` (with `-myproxy-user`
// and `-myproxy-pass`) or a per-owner `-myproxy-users` file enables
// proactive renewal — expiring proxies are re-fetched ahead of expiry
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
//	condorg serve -listen 127.0.0.1:7100 -sites host:p1,host:p2 [-mds addr] [-state dir] [-sync] [-ha] [-standby addr] [-lease-ttl d] [-standby-poll d] [-max-submit-retries n] [-per-site-inflight n] [-max-inflight n] [-stage-chunk-size n] [-stage-streams n] [-no-stage] [-no-metrics] [-journal-partitions n] [-max-queued-per-owner n] [-max-active-per-owner n] [-submit-rate r] [-submit-burst n] [-myproxy addr] [-myproxy-user u] [-myproxy-pass p] [-myproxy-users file] [-cred-renew-lead d] [-cred-renew-jitter d] [-cred-renew-interval d] [-cred-renew-lifetime d]
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
	"flag"
	"fmt"
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
	"condorg/internal/gsi"
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

// audit verifies a state directory's journal history offline: every frame
// CRC, every hash-chain link, every segment boundary, and the snapshot
// anchor. Exits 1 — naming the damaged segment and chain sequence — on any
// corruption or leftover quarantine evidence.
func audit(args []string) {
	if len(args) < 1 || args[0] != "verify" {
		fmt.Fprintln(os.Stderr, "usage: condorg audit verify -state dir [-json]")
		os.Exit(2)
	}
	fs := flag.NewFlagSet("audit verify", flag.ExitOnError)
	state := fs.String("state", "", "agent state directory (or its queue directory)")
	asJSON := fs.Bool("json", false, "emit the full report as JSON")
	fs.Parse(args[1:])
	if *state == "" {
		log.Fatal("condorg audit verify: need -state")
	}
	dir := *state
	// Accept either the agent StateDir or its queue directory directly.
	if st, err := os.Stat(filepath.Join(dir, "queue")); err == nil && st.IsDir() {
		dir = filepath.Join(dir, "queue")
	}
	// The queue is many independent stores, one per owner bucket. Each
	// carries its own snapshot anchor and hash chain; all must verify.
	dirs := journal.PartitionDirs(filepath.Join(dir, "parts"))
	failed := false
	for _, f := range journal.StoreFiles(dir) {
		fmt.Fprintf(os.Stderr, "condorg audit: %s holds records outside parts/ (the retired single-store layout); the agent refuses this state directory\n", f)
		failed = true
	}
	for _, d := range dirs {
		rep, verr := journal.VerifyDir(d)
		if *asJSON {
			out, _ := json.MarshalIndent(rep, "", "  ")
			fmt.Println(string(out))
		} else {
			fmt.Printf("== %s ==\n", d)
			fmt.Printf("snapshot: %d keys, chain anchor seq %d\n", rep.Keys, rep.Snapshot.Seq)
			for _, seg := range rep.Segments {
				status := "ok"
				if seg.Err != "" {
					status = "CORRUPT: " + seg.Err
				}
				fmt.Printf("%-40s %7d records  seq %d..%d  %s\n", seg.Path, seg.Records, seg.First, seg.Last, status)
			}
			for _, q := range rep.Quarantined {
				fmt.Printf("%-40s QUARANTINED (inspect and remove to reopen)\n", q)
			}
			fmt.Printf("verified chain head: seq %d\n", rep.Head.Seq)
		}
		if verr != nil {
			fmt.Fprintln(os.Stderr, "condorg audit:", verr)
			failed = true
		} else if !rep.OK() {
			fmt.Fprintln(os.Stderr, "condorg audit: history not clean (quarantined segments present)")
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("history verified: every record extends the hash chain")
}

// gatewayCmd runs the HTTP gateway: bearer-token users multiplexed onto
// one agent's control endpoint. The users file holds one "token owner"
// pair per line (blank lines and #-comments ignored). This mode fronts
// an open (trusted) control endpoint; embedding gateway.New with
// per-user GSI credentials gives the fully authenticated posture.
func gatewayCmd(args []string) {
	fs := flag.NewFlagSet("gateway", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:0", "HTTP listen address")
	agent := fs.String("agent", "127.0.0.1:7100", "agent control address")
	usersFile := fs.String("users", "", "path to the token→owner users file")
	fs.Parse(args)
	if *usersFile == "" {
		log.Fatal("condorg gateway: need -users")
	}
	raw, err := os.ReadFile(*usersFile)
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
			log.Fatalf("condorg gateway: %s:%d: want \"token owner\", got %q", *usersFile, i+1, line)
		}
		users[fields[0]] = gateway.User{Owner: fields[1]}
	}
	gw, err := gateway.New(*listen, gateway.Config{Agent: *agent, Users: users})
	if err != nil {
		log.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("condorg gateway: %d users, HTTP %s -> agent %s\n", len(users), gw.Addr(), *agent)
	go func() {
		<-sig
		fmt.Println("condorg gateway: shutting down")
		gw.Close()
	}()
	if err := gw.Serve(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
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

func serve(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:0", "control endpoint address")
	sites := fs.String("sites", "", "comma-separated gatekeeper addresses (round-robin)")
	mdsAddr := fs.String("mds", "", "MDS directory for brokered site selection")
	state := fs.String("state", "", "agent state directory (default: temp)")
	sync := fs.Bool("sync", false, "fsync the job queue journal before acknowledging submits (group commit)")
	maxSubmitRetries := fs.Int("max-submit-retries", 0, "hold a job after this many failed submission attempts (0 = default)")
	perSiteInFlight := fs.Int("per-site-inflight", 0, "concurrent remote ops per gatekeeper pipeline (0 = default 4)")
	maxInFlight := fs.Int("max-inflight", 0, "concurrent remote ops agent-wide across all sites (0 = default 64)")
	stageChunkSize := fs.Int("stage-chunk-size", 0, "staging transfer chunk size in bytes (0 = default 65536)")
	stageStreams := fs.Int("stage-streams", 0, "parallel chunk streams per site during staging (0 = default 4)")
	noStage := fs.Bool("no-stage", false, "disable executable pre-staging; sites pull executables over GASS")
	noMetrics := fs.Bool("no-metrics", false, "disable the metric registry (tracing stays on)")
	batchMaxJobs := fs.Int("batch-max-jobs", 0, "max jobs coalesced into one batch wire frame; 1 disables batching (0 = default 32)")
	batchMaxDelay := fs.Duration("batch-max-delay", 0, "linger after the first drained submit so trailing jobs join the batch (0 = send immediately)")
	wireCodec := fs.String("wire-codec", "", "wire frame codec offered at handshake: binary or json (default binary)")
	ha := fs.Bool("ha", false, "hot-standby support: replicate job payloads through the journal and wait for the follower's ack on submits")
	standby := fs.String("standby", "", "run as a hot standby tailing the primary at this control address; take over when its lease expires")
	leaseTTL := fs.Duration("lease-ttl", 0, "standby: declare the primary dead after this long without contact (0 = default 3s)")
	standbyPoll := fs.Duration("standby-poll", 0, "standby: journal stream long-poll bound (0 = default 1s)")
	journalPartitions := fs.Int("journal-partitions", 0, "owner hash buckets the job journal is sharded across (0 = default 16; pinned at first start)")
	maxQueuedPerOwner := fs.Int("max-queued-per-owner", 0, "reject a submit once the owner has this many non-terminal jobs (0 = unlimited)")
	maxActivePerOwner := fs.Int("max-active-per-owner", 0, "reject a submit once the owner has this many non-held active jobs (0 = unlimited)")
	submitRate := fs.Float64("submit-rate", 0, "per-owner submit token-bucket refill rate in submits/second (0 = unlimited)")
	submitBurst := fs.Int("submit-burst", 0, "per-owner submit token-bucket depth (min 1 when -submit-rate is set)")
	maxPayloadBytes := fs.Int("max-payload-bytes", 0, "reject a submit whose executable+stdin exceed this many bytes; oversized control envelopes are refused before decode (0 = unlimited)")
	glideinOn := fs.Bool("glidein", false, "run the elastic GlideIn autoscaler: pilots submitted to the -sites hosts form the schedulable pool and jobs bind to pilots as they come up (delayed binding)")
	glideinMin := fs.Int("glidein-min", 0, "minimum pilots the autoscaler keeps alive")
	glideinMax := fs.Int("glidein-max", 0, "maximum pilots (0 = twice the host-site count)")
	glideinJobsPerPilot := fs.Int("glidein-jobs-per-pilot", 0, "queue depth one pilot is expected to absorb (0 = default 4)")
	glideinLease := fs.Duration("glidein-lease", 0, "pilot lease: hard lifetime before self-retirement (0 = default 1h)")
	glideinIdle := fs.Duration("glidein-idle", 0, "pilot idle window before self-retirement (0 = default 1m)")
	glideinInterval := fs.Duration("glidein-interval", 0, "autoscaler reconciliation interval (0 = default 1s)")
	glideinCpus := fs.Int("glidein-cpus", 0, "CPUs each pilot's private gatekeeper schedules (0 = default 4)")
	myproxyAddr := fs.String("myproxy", "", "default MyProxy server for proactive credential renewal")
	myproxyUser := fs.String("myproxy-user", "", "MyProxy account used for owners without a per-owner binding")
	myproxyPass := fs.String("myproxy-pass", "", "password paired with -myproxy-user")
	myproxyUsers := fs.String("myproxy-users", "", "per-owner MyProxy bindings file: one \"owner user pass [addr]\" line per owner")
	credRenewLead := fs.Duration("cred-renew-lead", 0, "renew an owner's proxy once less than this lifetime remains (0 = warn threshold)")
	credRenewJitter := fs.Duration("cred-renew-jitter", 0, "deterministic per-owner spread added to the renewal lead so a fleet of renewals staggers (0 = none)")
	credRenewInterval := fs.Duration("cred-renew-interval", 0, "credential monitor scan period (0 = default 1m)")
	credRenewLifetime := fs.Duration("cred-renew-lifetime", 0, "lifetime requested for auto-renewed proxies (0 = default 12h)")
	fs.Parse(args)
	if *journalPartitions < 0 {
		log.Fatalf("condorg serve: -journal-partitions %d: the count must be positive (0 = default 16)", *journalPartitions)
	}

	var adaptive *broker.Adaptive
	var selector condorg.Selector
	switch {
	case *glideinOn:
		if *sites == "" {
			log.Fatal("condorg serve: -glidein needs -sites (the hosts pilots are submitted to)")
		}
		// The schedulable pool is the set of pilot gatekeepers; it starts
		// empty and the provisioner registers pilots as they come up, so
		// binding is deferred until capacity exists.
		adaptive = broker.NewAdaptive(nil)
		selector = adaptive
	case *mdsAddr != "":
		b, err := broker.NewMDSBroker(*mdsAddr, "", "")
		if err != nil {
			log.Fatal(err)
		}
		defer b.Close()
		selector = b
	case *sites != "":
		selector = &condorg.RoundRobinSelector{Sites: strings.Split(*sites, ",")}
	default:
		log.Fatal("condorg serve: need -sites or -mds")
	}

	stateDir := *state
	if stateDir == "" {
		var err error
		stateDir, err = os.MkdirTemp("", "condorg-agent-*")
		if err != nil {
			log.Fatal(err)
		}
	}
	cfg := condorg.DefaultAgentConfig()
	cfg.StateDir = stateDir
	cfg.Selector = selector
	cfg.Journal.Sync = *sync
	cfg.Retry.MaxSubmitRetries = *maxSubmitRetries
	cfg.Pipeline.PerSiteInFlight = *perSiteInFlight
	cfg.Pipeline.MaxInFlight = *maxInFlight
	cfg.Stage.ChunkSize = *stageChunkSize
	cfg.Stage.Streams = *stageStreams
	cfg.Stage.Disabled = *noStage
	cfg.Obs.Disabled = *noMetrics
	cfg.Batch.MaxJobs = *batchMaxJobs
	cfg.Batch.MaxDelay = *batchMaxDelay
	cfg.Wire.Codec = *wireCodec
	cfg.HA.Enabled = *ha
	cfg.DeferBinding = *glideinOn
	cfg.Tenancy.Partitions = *journalPartitions
	cfg.Tenancy.MaxQueuedPerOwner = *maxQueuedPerOwner
	cfg.Tenancy.MaxActivePerOwner = *maxActivePerOwner
	cfg.Tenancy.SubmitRate = *submitRate
	cfg.Tenancy.SubmitBurst = *submitBurst
	cfg.Tenancy.MaxPayloadBytes = *maxPayloadBytes
	if *myproxyUsers != "" {
		bindings, err := parseMyProxyUsers(*myproxyUsers)
		if err != nil {
			log.Fatal("condorg serve: ", err)
		}
		cfg.Tenancy.MyProxy = bindings
	}
	cf := credFlags{
		addr: *myproxyAddr, user: *myproxyUser, pass: *myproxyPass,
		usersFile: *myproxyUsers, lead: *credRenewLead, jitter: *credRenewJitter,
		interval: *credRenewInterval, lifetime: *credRenewLifetime,
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	if *standby != "" {
		if *glideinOn {
			log.Fatal("condorg serve: -glidein is a primary-agent feature and cannot be combined with -standby")
		}
		sb, err := condorg.NewStandby(condorg.StandbyConfig{
			Primary:  *standby,
			StateDir: stateDir,
			LeaseTTL: *leaseTTL,
			Poll:     *standbyPoll,
			Journal:  cfg.Journal,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("condorg standby: tailing %s (state %s)\n", *standby, stateDir)
		select {
		case <-sig:
			fmt.Println("condorg standby: shutting down")
			sb.Close()
			return
		case <-sb.TakeoverCh():
			fmt.Println("condorg standby: replication from the primary has ended; taking over")
		}
		agent, err := sb.Takeover(cfg)
		if err != nil {
			log.Fatal(err)
		}
		defer agent.Close()
		ctl, err := condorg.NewControlServerAddr(agent, *listen)
		if err != nil {
			log.Fatal(err)
		}
		defer ctl.Close()
		defer startCredMonitor(agent, cf)()
		fmt.Printf("condorg agent (promoted): control endpoint %s (state %s)\n", ctl.Addr(), stateDir)
		<-sig
		fmt.Println("condorg agent: shutting down")
		return
	}

	agent, err := condorg.NewAgent(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer agent.Close()
	defer startCredMonitor(agent, cf)()

	ctlCfg := condorg.ControlConfig{}
	if *glideinOn {
		prov, stop, err := startGlidein(agent, glideinFlags{
			hostSites:    strings.Split(*sites, ","),
			stateDir:     stateDir,
			registry:     adaptive,
			min:          *glideinMin,
			max:          *glideinMax,
			jobsPerPilot: *glideinJobsPerPilot,
			lease:        *glideinLease,
			idle:         *glideinIdle,
			interval:     *glideinInterval,
			cpus:         *glideinCpus,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
		ctlCfg.Pool = func() condorg.CtlPoolResp { return poolResp(prov.Status()) }
	}
	ctl, err := condorg.NewControlServerConfig(agent, *listen, ctlCfg)
	if err != nil {
		log.Fatal(err)
	}
	defer ctl.Close()
	fmt.Printf("condorg agent: control endpoint %s (state %s)\n", ctl.Addr(), stateDir)
	<-sig
	fmt.Println("condorg agent: shutting down")
}

// credFlags carries the serve credential-lifecycle flag values.
type credFlags struct {
	addr      string
	user      string
	pass      string
	usersFile string
	lead      time.Duration
	jitter    time.Duration
	interval  time.Duration
	lifetime  time.Duration
}

// startCredMonitor runs the multi-tenant credential monitor over the agent
// when any MyProxy source is configured, and returns its stop function (a
// no-op when no source is given — the monitor's warn/hold ladder is
// pointless on an agent that holds no credentials at all).
func startCredMonitor(agent *condorg.Agent, cf credFlags) func() {
	if cf.addr == "" && cf.usersFile == "" {
		return func() {}
	}
	mcfg := credmgr.MonitorConfig{
		Agent:         agent,
		RenewLead:     cf.lead,
		RenewJitter:   cf.jitter,
		Interval:      cf.interval,
		RenewLifetime: cf.lifetime,
		MyProxyUser:   cf.user,
		MyProxyPass:   cf.pass,
	}
	var mc *credmgr.MyProxyClient
	if cf.addr != "" {
		mc = credmgr.NewMyProxyClient(cf.addr, nil, gsi.WallClock)
		mcfg.MyProxy = mc
	}
	mon := credmgr.NewMonitor(mcfg)
	mon.Start()
	fmt.Println("condorg agent: credential monitor watching all owners")
	return func() {
		mon.Stop()
		if mc != nil {
			mc.Close()
		}
	}
}

// parseMyProxyUsers reads the per-owner MyProxy bindings file: one
// "owner user pass [addr]" line per owner (blank lines and #-comments
// ignored). Owners listed here renew from their own MyProxy account; an
// omitted addr falls back to the -myproxy server.
func parseMyProxyUsers(path string) (map[string]condorg.MyProxyBinding, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	bindings := make(map[string]condorg.MyProxyBinding)
	for i, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 && len(fields) != 4 {
			return nil, fmt.Errorf("%s:%d: want \"owner user pass [addr]\", got %q", path, i+1, line)
		}
		b := condorg.MyProxyBinding{User: fields[1], Pass: fields[2]}
		if len(fields) == 4 {
			b.Addr = fields[3]
		}
		bindings[fields[0]] = b
	}
	return bindings, nil
}

// glideinFlags carries the serve -glidein-* flag values.
type glideinFlags struct {
	hostSites    []string
	stateDir     string
	registry     *broker.Adaptive
	min, max     int
	jobsPerPilot int
	lease        time.Duration
	idle         time.Duration
	interval     time.Duration
	cpus         int
}

// startGlidein brings up the elastic-pool substrate inside the agent
// process — the personal-pool Collector pilots advertise to and the
// GridFTP repository they fetch the daemon payload from — and starts the
// autoscaler over the host sites. The returned stop function drains the
// pool (every pilot also self-retires via lease/idle if the agent dies
// without calling it).
func startGlidein(agent *condorg.Agent, gf glideinFlags) (*glidein.Provisioner, func(), error) {
	coll, err := condor.NewCollector(condor.CollectorOptions{})
	if err != nil {
		return nil, nil, fmt.Errorf("condorg serve: glidein collector: %w", err)
	}
	repoDir := filepath.Join(gf.stateDir, "glidein-repo")
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

	hosts := make(map[string]string, len(gf.hostSites))
	for _, addr := range gf.hostSites {
		hosts[addr] = addr
	}
	prov, err := glidein.NewProvisioner(glidein.ProvisionerConfig{
		HostSites:     hosts,
		CollectorAddr: coll.Addr(),
		RepoAddr:      repo.Addr(),
		Demand:        agent.Backlog,
		HostHealthy: func(gk string) bool {
			for _, row := range agent.PipelineHealth() {
				if row.Site == gk && row.Breaker == "open" {
					return false
				}
			}
			return true
		},
		Stage: func(addr string) (hits, misses int64) {
			for _, row := range agent.PipelineHealth() {
				if row.Site == addr {
					hits += int64(row.StageHits)
					misses += int64(row.StageMisses)
				}
			}
			return hits, misses
		},
		Registry:     gf.registry,
		SiteRetired:  agent.SiteRetired,
		MinPilots:    gf.min,
		MaxPilots:    gf.max,
		JobsPerPilot: gf.jobsPerPilot,
		Interval:     gf.interval,
		Lease:        gf.lease,
		IdleTimeout:  gf.idle,
		PilotCpus:    gf.cpus,
		Obs:          agent.Obs(),
	})
	if err != nil {
		coll.Close()
		repo.Close()
		return nil, nil, err
	}
	prov.Start()
	fmt.Printf("condorg agent: glidein autoscaler over %d host sites (collector %s, repo %s)\n",
		len(hosts), coll.Addr(), repo.Addr())
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

func client(fs *flag.FlagSet, args []string) (*condorg.ControlClient, []string) {
	agent := fs.String("agent", "127.0.0.1:7100", "agent control address")
	owner := fs.String("owner", "user", "submitting user")
	site := fs.String("site", "", "pin to one gatekeeper address")
	fs.Parse(args)
	cli := condorg.NewControlClient(*agent)
	rest := fs.Args()
	// Stash flag values for submit through package-level vars.
	submitOwner, submitSite = *owner, *site
	return cli, rest
}

var submitOwner, submitSite string

func submit(args []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	cli, rest := client(fs, args)
	defer cli.Close()
	if len(rest) < 1 {
		log.Fatal("condorg submit: need a program name")
	}
	id, err := cli.Submit(condorg.CtlSubmit{
		Owner:   submitOwner,
		Program: rest[0],
		Args:    rest[1:],
		Site:    submitSite,
	})
	if err != nil {
		die(err)
	}
	fmt.Println(id)
}

// queue lists jobs with the v1 filter: by owner, by state, paginated.
func queue(args []string) {
	fs := flag.NewFlagSet("q", flag.ExitOnError)
	agent := fs.String("agent", "127.0.0.1:7100", "agent control address")
	owner := fs.String("owner", "", "only this owner's jobs")
	stateNames := fs.String("state", "", "comma-separated states (idle,running,completed,failed,held,removed)")
	limit := fs.Int("limit", 0, "page size (0 = everything)")
	after := fs.String("after", "", "resume after this cursor (from the \"more:\" line of the previous page)")
	fs.Parse(args)

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
	cli := condorg.NewControlClient(*agent)
	defer cli.Close()
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
	agent := fs.String("agent", "127.0.0.1:7100", "agent control address")
	asJSON := fs.Bool("json", false, "emit JSON instead of text")
	fs.Parse(args)
	cli := condorg.NewControlClient(*agent)
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
	fs := flag.NewFlagSet("health", flag.ExitOnError)
	agent := fs.String("agent", "127.0.0.1:7100", "agent control address")
	fs.Parse(args)
	cli := condorg.NewControlClient(*agent)
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
	fs := flag.NewFlagSet("pool", flag.ExitOnError)
	agent := fs.String("agent", "127.0.0.1:7100", "agent control address")
	fs.Parse(args)
	cli := condorg.NewControlClient(*agent)
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
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	cli, rest := client(fs, args)
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
		if tl.Dropped > 0 {
			fmt.Printf("(%d earlier events dropped; ring capacity %d)\n", tl.Dropped, tl.Cap)
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
