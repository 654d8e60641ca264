package glidein

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"condorg/internal/condor"
	"condorg/internal/gram"
	"condorg/internal/gsi"
	"condorg/internal/obs"
)

// SiteRegistry is where the provisioner reports pool membership: pilots
// that come up are registered as schedulable sites, retired pilots are
// withdrawn. broker.Adaptive satisfies it.
type SiteRegistry interface {
	RegisterSite(addr string)
	RemoveSite(addr string)
}

// StageStats reports the agent's executable-cache outcomes for one site
// address. The provisioner retires cache-cold pilots first, so warmed
// caches survive a scale-down.
type StageStats func(addr string) (hits, misses int64)

// ProvisionerConfig configures the elastic autoscaler.
type ProvisionerConfig struct {
	// HostSites maps a label to the gatekeeper address of a real grid
	// site pilots may be submitted to.
	HostSites map[string]string
	// CollectorAddr is the pool collector pilots advertise to.
	CollectorAddr string
	// RepoAddr is the GridFTP repository holding the daemon payload.
	RepoAddr string
	// Credential and Clock authenticate GRAM submissions.
	Credential *gsi.Credential
	Clock      gsi.Clock
	// Demand reports the current queue depth the pool should absorb
	// (Agent.Backlog). Required.
	Demand func() int
	// HostHealthy vetoes host sites whose breaker is open (fed from the
	// agent's faultclass.BreakerSet snapshots). Nil means every host is
	// eligible.
	HostHealthy func(gkAddr string) bool
	// Stage, when set, orders scale-down victims cache-coldest first.
	Stage StageStats
	// Registry learns pilot gatekeepers as they come up. Optional.
	Registry SiteRegistry
	// SiteRetired, when set, is told each time a pilot's gatekeeper is
	// confirmed gone for good (its GRAM job reached a terminal state).
	// Wire it to Agent.SiteRetired so jobs still bound to the dead pilot
	// resubmit elsewhere instead of waiting out a reconnect that can
	// never happen.
	SiteRetired func(addr string)
	// MinPilots/MaxPilots clamp the pool size.
	MinPilots int
	MaxPilots int
	// Interval paces reconciliation ticks (default 1s).
	Interval time.Duration
	// Lease, IdleTimeout, AdvertiseInterval, PilotCpus and Delegate
	// parameterize the pilots themselves. PilotCpus (default 4) is also
	// the backlog one pilot absorbs: the pool targets backlog ÷ PilotCpus
	// pilots, since a pilot runs that many jobs at once.
	Lease             time.Duration
	IdleTimeout       time.Duration
	AdvertiseInterval time.Duration
	PilotCpus         int
	Delegate          time.Duration
	// Obs receives pool metrics (nil-safe).
	Obs *obs.Registry
}

// pilotState tracks one submitted pilot through its life.
type pilotState struct {
	slot      string
	hostSite  string // label
	contact   gram.JobContact
	gkAddr    string // learned from the collector ad; "" until up
	active    int64  // last advertised ActiveJobs
	retiring  bool
	marked    time.Time // when the scale-down decision was made
	cancelled bool      // the retirement cancel has been issued
}

// PilotStatus is the externally visible snapshot of one pilot.
type PilotStatus struct {
	Slot       string `json:"slot"`
	HostSite   string `json:"host_site"`
	Gatekeeper string `json:"gatekeeper,omitempty"`
	ActiveJobs int64  `json:"active_jobs"`
	State      string `json:"state"` // pending | up | retiring
}

// PoolStatus is the externally visible snapshot of the pool.
type PoolStatus struct {
	Target    int           `json:"target"`
	Demand    int           `json:"demand"`
	Submitted int64         `json:"submitted_total"`
	Retired   int64         `json:"retired_total"`
	Pilots    []PilotStatus `json:"pilots"`
}

// Provisioner is the elastic GlideIn autoscaler: a reconciliation loop
// that sizes a pool of gatekeeper pilots to the agent's backlog, scaling
// up onto healthy host sites and retiring idle pilots. Every pilot it
// launches carries the lease/idle self-retirement guards, so a crashed or
// partitioned provisioner can never leak daemons — the pool drains itself.
type Provisioner struct {
	cfg ProvisionerConfig
	gc  *gram.Client
	cc  *condor.CollectorClient

	mu     sync.Mutex
	n      int
	pilots []*pilotState
	target int
	demand int

	submitted *obs.Counter
	retired   *obs.Counter
	upEvents  *obs.Counter
	downEv    *obs.Counter

	stopCh chan struct{}
	wg     sync.WaitGroup
}

// NewProvisioner validates cfg and creates a stopped provisioner; call
// Start to begin reconciling.
func NewProvisioner(cfg ProvisionerConfig) (*Provisioner, error) {
	if len(cfg.HostSites) == 0 {
		return nil, fmt.Errorf("glidein: provisioner needs at least one host site")
	}
	if cfg.Demand == nil {
		return nil, fmt.Errorf("glidein: provisioner needs a Demand source")
	}
	if cfg.MaxPilots <= 0 {
		cfg.MaxPilots = 2 * len(cfg.HostSites)
	}
	if cfg.MinPilots < 0 {
		cfg.MinPilots = 0
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.PilotCpus <= 0 {
		cfg.PilotCpus = 4
	}
	if cfg.Lease <= 0 {
		cfg.Lease = time.Hour
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = time.Minute
	}
	if cfg.AdvertiseInterval <= 0 {
		cfg.AdvertiseInterval = 100 * time.Millisecond
	}
	p := &Provisioner{
		cfg:       cfg,
		gc:        gram.NewClient(cfg.Credential, cfg.Clock),
		cc:        condor.NewCollectorClient(cfg.CollectorAddr, cfg.Credential, cfg.Clock),
		submitted: cfg.Obs.Counter("glidein_pilots_submitted_total"),
		retired:   cfg.Obs.Counter("glidein_pilots_retired_total"),
		upEvents:  cfg.Obs.Counter(obs.Key("glidein_scale_events_total", "dir", "up")),
		downEv:    cfg.Obs.Counter(obs.Key("glidein_scale_events_total", "dir", "down")),
	}
	cfg.Obs.AddCollector(func(set func(name string, v float64)) {
		p.mu.Lock()
		set("glidein_pool_size", float64(len(p.pilots)))
		set("glidein_pool_target", float64(p.target))
		p.mu.Unlock()
	})
	return p, nil
}

// Client exposes the underlying GRAM client (for timeouts in tests).
func (p *Provisioner) Client() *gram.Client { return p.gc }

// Start launches the reconciliation loop.
func (p *Provisioner) Start() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopCh != nil {
		return
	}
	p.stopCh = make(chan struct{})
	p.wg.Add(1)
	go p.run(p.stopCh)
}

func (p *Provisioner) run(stop chan struct{}) {
	defer p.wg.Done()
	ticker := time.NewTicker(p.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			p.tick()
		}
	}
}

// tick is one reconciliation pass: learn pilot contacts from the
// collector, reap pilots that terminated, then scale toward the target.
// pilotState fields are only mutated under p.mu (Status reads them there);
// every remote call happens with the lock released.
func (p *Provisioner) tick() {
	type adInfo struct {
		gk     string
		active int64
	}
	ads := map[string]adInfo{}
	if got, err := p.cc.Query("Machine", AdAttrGlideIn+` == "true"`); err == nil {
		for _, ad := range got {
			ads[ad.EvalString("Name", "")] = adInfo{
				gk:     ad.EvalString(AdAttrGatekeeper, ""),
				active: ad.EvalInt(AdAttrActiveJobs, 0),
			}
		}
	}

	// Learn addresses and idleness from the soft-state ads.
	p.mu.Lock()
	pilots := append([]*pilotState(nil), p.pilots...)
	var newSites []string
	for _, ps := range pilots {
		if info, ok := ads[ps.slot]; ok {
			if ps.gkAddr == "" && info.gk != "" {
				ps.gkAddr = info.gk
				newSites = append(newSites, info.gk)
			}
			ps.active = info.active
		}
	}
	p.mu.Unlock()
	if p.cfg.Registry != nil {
		for _, gk := range newSites {
			p.cfg.Registry.RegisterSite(gk)
		}
	}

	// Reap pilots whose GRAM job reached a terminal state (self-retired
	// via lease/idle, cancelled, or lost with their host site).
	live := pilots[:0]
	for _, ps := range pilots {
		st, err := p.gc.Status(ps.contact)
		p.mu.Lock()
		retiring, gk := ps.retiring, ps.gkAddr
		p.mu.Unlock()
		if err == nil && !st.State.Terminal() {
			live = append(live, ps)
			continue
		}
		if err != nil && !retiring {
			// Unreachable but not known dead (host partition): keep it;
			// its own lease guard bounds how long it can linger.
			live = append(live, ps)
			continue
		}
		if gk != "" {
			if p.cfg.Registry != nil {
				p.cfg.Registry.RemoveSite(gk)
			}
			// The pilot exits only after closing its gatekeeper, so any
			// job still bound there can never finish: tell the agent.
			if p.cfg.SiteRetired != nil {
				p.cfg.SiteRetired(gk)
			}
		}
		p.retired.Inc()
	}

	// Finish graceful retirements. The scale-down mark deregistered the
	// pilot, so no new work binds to it — but a job bound just before the
	// mark may only now be surfacing in the pilot's ActiveJobs ad. Cancel
	// only once a post-mark advertisement round still shows the pilot
	// idle; a busy pilot keeps running until it drains (or its own
	// lease/idle guard fires).
	grace := 2 * p.cfg.AdvertiseInterval
	var cancels []gram.JobContact
	n := 0 // non-retiring pilots: deregistered ones take no new work
	p.mu.Lock()
	for _, ps := range live {
		if ps.retiring && !ps.cancelled && ps.active == 0 && time.Since(ps.marked) >= grace {
			ps.cancelled = true
			cancels = append(cancels, ps.contact)
		}
		if !ps.retiring {
			n++
		}
	}
	p.mu.Unlock()
	for _, contact := range cancels {
		p.gc.Cancel(contact)
	}

	demand := p.cfg.Demand()
	target := (demand + p.cfg.PilotCpus - 1) / p.cfg.PilotCpus
	if target < p.cfg.MinPilots {
		target = p.cfg.MinPilots
	}
	if target > p.cfg.MaxPilots {
		target = p.cfg.MaxPilots
	}

	if n < target {
		live = append(live, p.scaleUp(target-n)...)
	} else if n > target {
		p.scaleDown(live, n-target)
	}

	p.mu.Lock()
	p.pilots = append(p.pilots[:0], live...)
	p.target = target
	p.demand = demand
	p.mu.Unlock()
}

// scaleUp submits n pilots round-robin across healthy host sites.
func (p *Provisioner) scaleUp(n int) []*pilotState {
	labels := make([]string, 0, len(p.cfg.HostSites))
	for label, gk := range p.cfg.HostSites {
		if p.cfg.HostHealthy == nil || p.cfg.HostHealthy(gk) {
			labels = append(labels, label)
		}
	}
	if len(labels) == 0 {
		return nil
	}
	sort.Strings(labels)
	var out []*pilotState
	for i := 0; i < n; i++ {
		label := labels[i%len(labels)]
		p.mu.Lock()
		p.n++
		slot := fmt.Sprintf("glidein-gk-%s-%d", label, p.n)
		p.mu.Unlock()
		spec := gram.JobSpec{
			Executable: string(gram.Program(GatekeeperPilotProgram)),
			Args: gkPilotArgs(gkPilotConfig{
				collectorAddr: p.cfg.CollectorAddr,
				repoAddr:      p.cfg.RepoAddr,
				slotName:      slot,
				siteLabel:     label,
				cpus:          p.cfg.PilotCpus,
				lease:         p.cfg.Lease,
				idle:          p.cfg.IdleTimeout,
				advertise:     p.cfg.AdvertiseInterval,
			}),
		}
		contact, err := p.gc.Submit(p.cfg.HostSites[label], spec, gram.SubmitOptions{
			SubmissionID: gram.NewSubmissionID(),
			Delegate:     p.cfg.Delegate,
		})
		if err != nil {
			continue
		}
		if err := p.gc.Commit(contact); err != nil {
			continue
		}
		p.submitted.Inc()
		p.upEvents.Inc()
		out = append(out, &pilotState{slot: slot, hostSite: label, contact: contact})
	}
	return out
}

// scaleDown marks up to n idle pilots for retirement, cache-coldest
// first. The site registration is withdrawn immediately, so the broker
// stops binding new work to them; the actual cancel waits in tick until a
// post-mark advertisement confirms the pilot really is idle — the ad the
// victim was chosen by may predate a job that just landed on it.
func (p *Provisioner) scaleDown(live []*pilotState, n int) {
	var victims []*pilotState
	for _, ps := range live {
		if !ps.retiring && ps.gkAddr != "" && ps.active == 0 {
			victims = append(victims, ps)
		}
	}
	if p.cfg.Stage != nil {
		sort.SliceStable(victims, func(i, j int) bool {
			hi, _ := p.cfg.Stage(victims[i].gkAddr)
			hj, _ := p.cfg.Stage(victims[j].gkAddr)
			return hi < hj
		})
	}
	if len(victims) > n {
		victims = victims[:n]
	}
	for _, ps := range victims {
		if p.cfg.Registry != nil {
			p.cfg.Registry.RemoveSite(ps.gkAddr)
		}
		p.downEv.Inc()
	}
	p.mu.Lock()
	for _, ps := range victims {
		ps.retiring = true
		ps.marked = time.Now()
	}
	p.mu.Unlock()
}

// Status snapshots the pool.
func (p *Provisioner) Status() PoolStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PoolStatus{
		Target:    p.target,
		Demand:    p.demand,
		Submitted: p.submitted.Value(),
		Retired:   p.retired.Value(),
	}
	for _, ps := range p.pilots {
		state := "pending"
		switch {
		case ps.retiring:
			state = "retiring"
		case ps.gkAddr != "":
			state = "up"
		}
		st.Pilots = append(st.Pilots, PilotStatus{
			Slot:       ps.slot,
			HostSite:   ps.hostSite,
			Gatekeeper: ps.gkAddr,
			ActiveJobs: ps.active,
			State:      state,
		})
	}
	return st
}

// Stop halts reconciliation without touching running pilots — their
// lease/idle guards retire them on their own schedule.
func (p *Provisioner) Stop() {
	p.mu.Lock()
	stop := p.stopCh
	p.stopCh = nil
	p.mu.Unlock()
	if stop != nil {
		close(stop)
		p.wg.Wait()
	}
}

// Drain stops reconciliation and cancels every pilot immediately.
func (p *Provisioner) Drain() {
	p.Stop()
	p.mu.Lock()
	pilots := append([]*pilotState(nil), p.pilots...)
	p.pilots = nil
	p.mu.Unlock()
	for _, ps := range pilots {
		if ps.gkAddr != "" && p.cfg.Registry != nil {
			p.cfg.Registry.RemoveSite(ps.gkAddr)
		}
		p.gc.Cancel(ps.contact)
	}
}

// Close releases clients; call after Stop/Drain.
func (p *Provisioner) Close() {
	p.gc.Close()
	p.cc.Close()
}
