package main

// The system under test, stood up in-process over loopback TCP exactly as
// `condorg serve` + `condorg gateway` + N `gridsite`s would be: HTTP gateway
// → authenticated ctl.v1 endpoint → one agent (DefaultAgentConfig plus
// durable group-commit journaling) → GRAM sites over LRM clusters. The
// harness touches the stack only through seams it already accepts —
// wire.Faults.Delay on every server (injected WAN delay, and the place RPCs
// are counted), gram.Runtime (the program body, stamped per job tag), and
// condorg.Selector (timed) — and through its public read-outs.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"condorg/internal/condorg"
	"condorg/internal/gateway"
	"condorg/internal/gram"
	"condorg/internal/gsi"
	"condorg/internal/lrm"
	"condorg/internal/wire"
)

// ownerSubjectPrefix is stripped from a session subject to get the owner.
const ownerSubjectPrefix = "/C=bench/U="

// rpcCounts counts requests per "<server>/<verb>" as they arrive at the
// Delay hook of each server's wire.Faults.
type rpcCounts struct {
	mu sync.Mutex
	n  map[string]int64
}

// remoteGASS are the GASS verbs a site issues against the agent across the
// WAN. The agent's own spool writes (gass.write, over loopback on the
// submit machine in any deployment) are counted but not delayed.
var remoteGASS = map[string]bool{"gass.read": true, "gass.append": true, "gass.stat": true}

// hook returns the Delay hook for one server kind: count every arrival,
// then delay it — every verb when only is nil, else just the verbs in it.
func (c *rpcCounts) hook(server string, delay time.Duration, only map[string]bool) func(string) time.Duration {
	return func(method string) time.Duration {
		c.mu.Lock()
		c.n[server+"/"+method]++
		c.mu.Unlock()
		if only != nil && !only[method] {
			return 0
		}
		return delay
	}
}

func (c *rpcCounts) snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.n))
	for k, v := range c.n {
		out[k] = v
	}
	return out
}

// timedSelector wraps the shipped round-robin selector and clocks it.
type timedSelector struct {
	inner *condorg.RoundRobinSelector
	calls atomic.Int64
	ns    atomic.Int64
	clock *clock
	spans *spanLog
}

// Select implements condorg.Selector.
func (s *timedSelector) Select(req condorg.SubmitRequest) (string, error) {
	return s.SelectHealthy(req, nil)
}

// SelectHealthy implements condorg.HealthAwareSelector, so wrapping does not
// change which sites the agent may pick.
func (s *timedSelector) SelectHealthy(req condorg.SubmitRequest, healthy condorg.HealthView) (string, error) {
	start := s.clock.now()
	site, err := s.inner.SelectHealthy(req, healthy)
	end := s.clock.now()
	s.calls.Add(1)
	s.ns.Add(end - start)
	if len(req.Args) > 0 {
		s.spans.add("broker.select", start, end, 0, req.Args[0])
	}
	return site, err
}

// stackConfig is what a workload asks of the stack.
type stackConfig struct {
	stateRoot string // fresh directory; everything durable lives below it
	sites     int
	cpus      int
	owners    int
	frontDoor bool // build the ctl.v1 endpoint and the gateway
	delay     time.Duration
	seed      int64
}

// stack is one running system plus the harness seams attached to it.
type stack struct {
	cfg      stackConfig
	sites    []*gram.Site
	agentCfg condorg.AgentConfig
	agent    *condorg.Agent
	ctl      *condorg.ControlServer
	gw       *gateway.Gateway
	owners   []string
	creds    []*gsi.Credential // per owner, for ctl sessions
	rpcs     *rpcCounts
	sel      *timedSelector
	rt       *benchRuntime
}

func ownerName(i int) string  { return fmt.Sprintf("owner%03d", i) }
func ownerToken(i int) string { return fmt.Sprintf("token-%03d", i) }

// newStack builds sites, agent and (optionally) the front door. The caller
// owns rt so one runtime — and its exactly-once ledger — can outlive agent
// restarts in the recovery workload.
func newStack(cfg stackConfig, rt *benchRuntime, clk *clock, spans *spanLog) (*stack, error) {
	now := time.Now()
	ca, err := gsi.NewCA("/C=bench/CN=CA", now, 24*time.Hour)
	if err != nil {
		return nil, err
	}
	s := &stack{cfg: cfg, rt: rt, rpcs: &rpcCounts{n: map[string]int64{}}}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()

	faults := func(server string, only map[string]bool) *wire.Faults {
		f := &wire.Faults{}
		f.SetDelay(s.rpcs.hook(server, cfg.delay, only))
		return f
	}
	var addrs []string
	for i := 0; i < cfg.sites; i++ {
		name := fmt.Sprintf("site%02d", i)
		cluster, err := lrm.NewCluster(lrm.Config{Name: name, Cpus: cfg.cpus})
		if err != nil {
			return nil, err
		}
		dir := filepath.Join(cfg.stateRoot, name)
		if err := os.MkdirAll(dir, 0o700); err != nil {
			return nil, err
		}
		site, err := gram.NewSite(gram.SiteConfig{
			Name:             name,
			Anchor:           ca.Certificate(),
			Cluster:          cluster,
			Runtime:          rt,
			StateDir:         dir,
			GatekeeperFaults: faults("gatekeeper", nil),
			JobManagerFaults: faults("jobmanager", nil),
		})
		if err != nil {
			return nil, err
		}
		s.sites = append(s.sites, site)
		addrs = append(addrs, site.GatekeeperAddr())
	}
	// The seed fixes the order the round-robin walks the sites in.
	rand.New(rand.NewSource(cfg.seed)).Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
	s.sel = &timedSelector{inner: &condorg.RoundRobinSelector{Sites: addrs}, clock: clk, spans: spans}

	agentUser, err := ca.IssueUser(ownerSubjectPrefix+"agent", now, 12*time.Hour)
	if err != nil {
		return nil, err
	}
	agentProxy, err := gsi.NewProxy(agentUser, now, 6*time.Hour)
	if err != nil {
		return nil, err
	}
	// Shipped defaults, plus exactly these deviations (README "Deviations"):
	// durable journaling, the credential and selector every deployment must
	// supply, and the injected delay on the agent's two servers.
	ac := condorg.DefaultAgentConfig()
	ac.StateDir = filepath.Join(cfg.stateRoot, "agent")
	ac.Selector = s.sel
	ac.Credential = agentProxy
	ac.Journal.Sync = true
	ac.Faults = condorg.FaultOptions{Callback: faults("callback", nil), GASS: faults("gass", remoteGASS)}
	s.agentCfg = ac
	if s.agent, err = condorg.NewAgent(ac); err != nil {
		return nil, err
	}

	for i := 0; i < cfg.owners; i++ {
		s.owners = append(s.owners, ownerName(i))
	}
	if cfg.frontDoor {
		s.ctl, err = condorg.NewControlServerConfig(s.agent, "127.0.0.1:0", condorg.ControlConfig{
			Anchor:  ca.Certificate(),
			OwnerOf: func(subject string) string { return strings.TrimPrefix(subject, ownerSubjectPrefix) },
		})
		if err != nil {
			return nil, err
		}
		users := make(map[string]gateway.User, cfg.owners)
		for i, owner := range s.owners {
			cred, err := ca.IssueUser(ownerSubjectPrefix+owner, now, 12*time.Hour)
			if err != nil {
				return nil, err
			}
			s.creds = append(s.creds, cred)
			users[ownerToken(i)] = gateway.User{Owner: owner, Credential: cred}
		}
		if s.gw, err = gateway.New("127.0.0.1:0", gateway.Config{Agent: s.ctl.Addr(), Users: users}); err != nil {
			return nil, err
		}
		go s.gw.Serve() // returns once close() closes the gateway
	}
	ok = true
	return s, nil
}

// reopenAgent starts a new agent on the same StateDir (the submit machine
// coming back after a crash); the previous agent must be closed.
func (s *stack) reopenAgent() error {
	a, err := condorg.NewAgent(s.agentCfg)
	if err != nil {
		return err
	}
	s.agent = a
	return nil
}

// close tears the stack down front to back.
func (s *stack) close() {
	if s.gw != nil {
		s.gw.Close()
	}
	if s.ctl != nil {
		s.ctl.Close()
	}
	if s.agent != nil {
		s.agent.Close()
	}
	for _, site := range s.sites {
		site.Close()
	}
}

// stagedBytes sums the executable bytes all sites received over the
// chunked push plane.
func (s *stack) stagedBytes() int64 {
	var n int64
	for _, site := range s.sites {
		n += site.StageBytesReceived()
	}
	return n
}

// rpcGroups folds a per-"<server>/<verb>" count map into the groups the
// per-layer table reports: one total, one per server kind, and the status
// verbs ROADMAP item 5 wants driven to zero.
func rpcGroups(n map[string]int64) map[string]int64 {
	g := map[string]int64{"total": 0, "gatekeeper": 0, "jobmanager": 0, "callback": 0, "gass": 0, "status": 0}
	for key, v := range n {
		server, verb, _ := strings.Cut(key, "/")
		g["total"] += v
		g[server] += v
		if strings.Contains(verb, "status") {
			g["status"] += v
		}
	}
	return g
}
