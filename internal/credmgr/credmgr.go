// Package credmgr implements the credential management of §4.3 at
// multi-tenant scale. One Monitor scan loop analyzes the proxies of every
// owner with currently queued jobs: it raises alarms before expiry,
// proactively renews expiring proxies from each owner's MyProxy binding
// (with a per-owner jittered lead so a fleet of renewals never stampedes
// the MyProxy server), installs the fresh proxy through the agent — which
// re-delegates it in-band to the sites of the owner's running jobs, one
// gatekeeper batch frame per site, no hold/release cycle — and places jobs
// on hold with an explanatory notification only when a proxy actually
// expires. The package also provides the MyProxy server and
// client: long-lived credentials stay on the password-protected server,
// and the agent fetches short-lived proxies from it, limiting exposure of
// the long-lived credential.
package credmgr

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"condorg/internal/condorg"
	"condorg/internal/gsi"
	"condorg/internal/obs"
)

// HoldReason marks holds placed by the monitor when a proxy has expired.
const HoldReason = "credential expired"

// holdPrefix matches every credential-caused hold reason: the monitor's
// HoldReason, the GridManager's submit-time "credential rejected by ..."
// holds, and its "credential re-delegation ... failed" fallback holds. A
// successful renewal releases all of them.
const holdPrefix = "credential"

// MonitorConfig configures a credential monitor.
type MonitorConfig struct {
	// Agent is the Condor-G agent whose credentials are watched.
	Agent *condorg.Agent
	// Owner restricts the monitor to one user. Empty (the default) scans
	// every owner with queued jobs — "the agent ... periodically analyzes
	// the credentials for all users with currently queued jobs."
	Owner string
	// Clock drives expiry decisions (virtual in tests).
	Clock gsi.Clock
	// WarnThreshold raises a reminder notification when less than this
	// lifetime remains ("credential alarms", §4.3).
	WarnThreshold time.Duration
	// Interval is the scan period.
	Interval time.Duration
	// RenewLead is the remaining lifetime below which an owner with a
	// MyProxy binding is renewed proactively (default: WarnThreshold).
	RenewLead time.Duration
	// RenewJitter widens each owner's effective lead by a deterministic
	// per-owner amount in [0, RenewJitter), spreading a fleet of owners'
	// renewals across the window instead of firing them all on the same
	// scan. Zero disables the jitter.
	RenewJitter time.Duration
	// RenewLifetime is the lifetime requested for auto-renewed proxies.
	RenewLifetime time.Duration
}

// Monitor watches the credentials of the agent's owners.
type Monitor struct {
	cfg MonitorConfig

	mu       sync.Mutex
	warned   map[string]bool           // per-owner: alarm already sent
	clients  map[string]*MyProxyClient // dialed per-binding servers, by address
	scans    int
	renewals int
	lastErr  error
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

// NewMonitor creates a monitor (call Start for the background loop, or
// Scan from a test for deterministic stepping).
func NewMonitor(cfg MonitorConfig) *Monitor {
	if cfg.Clock == nil {
		cfg.Clock = gsi.WallClock
	}
	if cfg.WarnThreshold == 0 {
		cfg.WarnThreshold = time.Hour
	}
	if cfg.Interval == 0 {
		cfg.Interval = time.Minute
	}
	if cfg.RenewLead == 0 {
		cfg.RenewLead = cfg.WarnThreshold
	}
	if cfg.RenewLifetime == 0 {
		cfg.RenewLifetime = 12 * time.Hour
	}
	return &Monitor{
		cfg:     cfg,
		warned:  make(map[string]bool),
		clients: make(map[string]*MyProxyClient),
	}
}

// ScanError reports one owner's failed scan operation; it unwraps to the
// underlying cause.
type ScanError struct {
	// Owner is the user whose scan step failed.
	Owner string
	// Op names the step: "renew" or "bootstrap".
	Op string
	// Err is the underlying failure.
	Err error
}

// Error implements error.
func (e *ScanError) Error() string {
	return fmt.Sprintf("credmgr: %s for owner %q: %v", e.Op, e.Owner, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *ScanError) Unwrap() error { return e.Err }

// MonitorStats is a snapshot of the monitor's counters.
type MonitorStats struct {
	// Scans counts completed scan passes.
	Scans int
	// Renewals counts successful proactive renewals across all owners.
	Renewals int
	// LastErr is the most recent scan failure (typed *ScanError naming
	// the owner and operation), nil after a subsequent success. Start's
	// background loop records failures here instead of dropping them.
	LastErr error
}

// Stats reports scan and renewal counts plus the last scan error.
func (m *Monitor) Stats() MonitorStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MonitorStats{Scans: m.scans, Renewals: m.renewals, LastErr: m.lastErr}
}

// OwnerScan is one owner's slice of a scan pass.
type OwnerScan struct {
	// Owner is the user this slice describes.
	Owner string
	// TimeLeft is the owner's proxy lifetime remaining after the pass.
	TimeLeft time.Duration
	// Warned reports that the expiry alarm was sent this pass.
	Warned bool
	// Renewed reports a successful proactive renewal this pass.
	Renewed bool
	// Held lists jobs placed on hold because the proxy expired.
	Held []string
	// Released lists jobs released after a renewal.
	Released []string
	// Err is the pass's failure for this owner, if any (*ScanError).
	Err error
}

// ScanResult aggregates one scan pass. The scalar fields fold every
// scanned owner together (TimeLeft is the minimum observed); Owners holds
// the per-owner detail.
type ScanResult struct {
	// TimeLeft is the smallest remaining proxy lifetime across scanned
	// owners (zero when no owner had queued jobs).
	TimeLeft time.Duration
	// Warned reports that at least one owner was alarmed this pass.
	Warned bool
	// Held lists every job held this pass, across owners.
	Held []string
	// Renewed reports that at least one owner was renewed this pass.
	Renewed bool
	// Released lists every job released this pass, across owners.
	Released []string
	// Owners holds the per-owner detail, in scan order.
	Owners []OwnerScan
}

// Scan analyzes every watched owner's credential once. "The agent ...
// periodically analyzes the credentials for all users with currently
// queued jobs."
func (m *Monitor) Scan() ScanResult {
	m.mu.Lock()
	m.scans++
	m.mu.Unlock()
	agent := m.cfg.Agent
	owners := []string{m.cfg.Owner}
	if m.cfg.Owner == "" {
		owners = agent.Owners()
	}
	var res ScanResult
	seen := false
	for _, owner := range owners {
		if !agent.HasPendingJobs(owner) {
			continue
		}
		os := m.scanOwner(owner)
		res.Owners = append(res.Owners, os)
		if !seen || os.TimeLeft < res.TimeLeft {
			res.TimeLeft = os.TimeLeft
		}
		seen = true
		res.Warned = res.Warned || os.Warned
		res.Renewed = res.Renewed || os.Renewed
		res.Held = append(res.Held, os.Held...)
		res.Released = append(res.Released, os.Released...)
	}
	return res
}

// scanOwner runs one owner's analysis: proactive renewal first (it
// preempts both the alarm and the hold), then the §4.3 warn/hold ladder.
func (m *Monitor) scanOwner(owner string) OwnerScan {
	agent := m.cfg.Agent
	os := OwnerScan{Owner: owner}
	now := m.cfg.Clock()
	cred := agent.OwnerCredential(owner)
	if cred != nil {
		os.TimeLeft = cred.TimeLeft(now)
	}

	client, user, pass, bound := m.bindingFor(owner)
	if bound && (cred == nil || os.TimeLeft < m.leadFor(owner)) {
		op := "renew"
		if cred == nil {
			op = "bootstrap" // no proxy yet: fetch the first one
		}
		fresh, err := client.Get(user, pass, m.cfg.RenewLifetime)
		if err == nil {
			agent.Obs().Histogram("cred_renew_lead_seconds").Observe(os.TimeLeft.Seconds())
			agent.SetOwnerCredential(owner, fresh)
			m.mu.Lock()
			m.renewals++
			m.lastErr = nil
			delete(m.warned, owner)
			m.mu.Unlock()
			agent.Obs().Counter(obs.Key("cred_renewals_total", "owner", owner)).Inc()
			os.Renewed = true
			os.TimeLeft = fresh.TimeLeft(now)
			// The prefix matches the monitor's expiry holds AND the
			// GridManager's credential holds (submit-time rejections,
			// exhausted re-delegations), so a renewal frees everything
			// the stale proxy parked.
			os.Released = agent.ReleaseAll(owner, holdPrefix)
			return os
		}
		os.Err = &ScanError{Owner: owner, Op: op, Err: err}
		m.noteError(os.Err, owner, op)
		agent.Notifier().Notify(owner, "MyProxy renewal failed",
			"Automatic credential renewal from MyProxy failed: "+err.Error())
	}
	if cred == nil {
		return os // nothing to analyze; submits will fail loudly
	}

	switch {
	case os.TimeLeft <= 0:
		// Expired: hold everything and tell the user how to recover.
		os.Held = agent.HoldAll(owner, HoldReason)
		if len(os.Held) > 0 {
			agent.Notifier().Notify(owner, "credentials expired — jobs held",
				"Your Grid proxy has expired. Your jobs cannot run again until "+
					"your credentials are refreshed (run grid-proxy-init, then "+
					"condorg refresh).")
		}
	case os.TimeLeft < m.cfg.WarnThreshold:
		m.mu.Lock()
		already := m.warned[owner]
		m.warned[owner] = true
		m.mu.Unlock()
		if !already {
			os.Warned = true
			agent.Notifier().Notify(owner, "credential expiring soon",
				"Your Grid proxy expires in "+os.TimeLeft.Truncate(time.Second).String()+
					". Refresh it to keep your jobs running.")
		}
	default:
		m.mu.Lock()
		delete(m.warned, owner)
		m.mu.Unlock()
	}
	return os
}

// bindingFor resolves owner's renewal source — the agent's MyProxy binding
// for the owner, or its tenancy-wide default — dialing the binding's server
// on demand. A binding without a server address renews nothing.
func (m *Monitor) bindingFor(owner string) (client *MyProxyClient, user, pass string, ok bool) {
	b, bound := m.cfg.Agent.MyProxyBinding(owner)
	if !bound || b.Addr == "" {
		return nil, "", "", false
	}
	return m.clientFor(b.Addr), b.User, b.Pass, true
}

// clientFor returns (dialing once) the client for a binding's server.
func (m *Monitor) clientFor(addr string) *MyProxyClient {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c := m.clients[addr]; c != nil {
		return c
	}
	c := NewMyProxyClient(addr, nil, m.cfg.Clock)
	m.clients[addr] = c
	return c
}

// leadFor returns owner's effective renewal lead: RenewLead plus a
// deterministic per-owner jitter in [0, RenewJitter) derived from a hash
// of the owner name — stable across scans and restarts, so each owner
// renews at a consistent point in the window while the fleet spreads out.
func (m *Monitor) leadFor(owner string) time.Duration {
	lead := m.cfg.RenewLead
	if m.cfg.RenewJitter > 0 {
		h := fnv.New64a()
		h.Write([]byte(owner))
		lead += time.Duration(h.Sum64() % uint64(m.cfg.RenewJitter))
	}
	return lead
}

// noteError records a scan failure where Stats can surface it and counts
// it in cred_scan_errors_total — Start's background loop must not swallow
// failures silently.
func (m *Monitor) noteError(err error, owner, op string) {
	m.mu.Lock()
	m.lastErr = err
	m.mu.Unlock()
	m.cfg.Agent.Obs().Counter(obs.Key("cred_scan_errors_total", "owner", owner, "op", op)).Inc()
}

// Refresh installs a user-supplied fresh proxy for owner: the owner's
// GridManager switches to it, the proxy is re-delegated in-band to every
// live remote job, and jobs held for credential reasons are released. An
// empty owner refreshes the agent-wide default credential instead (owners
// renewed individually keep their own, newer proxies) and releases every
// owner's credential holds.
func (m *Monitor) Refresh(owner string, cred *gsi.Credential) ScanResult {
	agent := m.cfg.Agent
	var res ScanResult
	res.TimeLeft = cred.TimeLeft(m.cfg.Clock())
	if owner == "" {
		agent.SetCredential(cred)
		for _, o := range agent.Owners() {
			res.Released = append(res.Released, agent.ReleaseAll(o, holdPrefix)...)
			m.mu.Lock()
			delete(m.warned, o)
			m.mu.Unlock()
		}
		return res
	}
	agent.SetOwnerCredential(owner, cred)
	m.mu.Lock()
	delete(m.warned, owner)
	m.mu.Unlock()
	res.Released = agent.ReleaseAll(owner, holdPrefix)
	return res
}

// Start runs Scan on the configured interval until Stop.
func (m *Monitor) Start() {
	m.mu.Lock()
	if m.stopCh != nil {
		m.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	m.stopCh = stop
	m.mu.Unlock()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		ticker := time.NewTicker(m.cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				m.Scan()
			}
		}
	}()
}

// Stop halts the background loop and releases any per-binding MyProxy
// connections the monitor dialed.
func (m *Monitor) Stop() {
	m.mu.Lock()
	stop := m.stopCh
	m.stopCh = nil
	clients := m.clients
	m.clients = make(map[string]*MyProxyClient)
	m.mu.Unlock()
	if stop != nil {
		close(stop)
		m.wg.Wait()
	}
	for _, c := range clients {
		c.Close()
	}
}
