// Package glidein implements §5 of the paper: using Grid protocols to
// dynamically create a personal Condor pool out of Grid resources. The
// Factory submits *pilot* jobs through GRAM; each pilot is the paper's
// "initial GlideIn executable (a portable shell script)" which fetches the
// Condor daemon payload from a central repository over GSI-authenticated
// GridFTP and then runs a Startd that registers with the user's Collector.
// Pilots shut themselves down when their lease expires or when idle too
// long, "guarding against runaway daemons".
//
// # Payload caching
//
// Every pilot on a machine wants the same daemon payload, so fetches are
// cached per process, keyed by the repository's content identity
// (addr|size|crc from ftp.Stat). The key carries the content identity,
// not just the path: when the repository publishes a new payload the
// stat changes, the key misses, and the next pilot fetches fresh bytes —
// a stale cache can never resurrect an old daemon.
package glidein

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"condorg/internal/classad"
	"condorg/internal/condor"
	"condorg/internal/gram"
	"condorg/internal/gridftp"
	"condorg/internal/gsi"
)

// BootstrapProgram is the name the pilot executable dispatches to in a
// site's GRAM runtime.
const BootstrapProgram = "glidein-bootstrap"

// StartdBlob is the repository path of the Condor daemon payload the pilot
// downloads. Its content is opaque; the transfer (and its checksum
// verification) is the point.
const StartdBlob = "bin/condor_startd"

// startdCache memoizes daemon payload fetches per process, keyed by the
// repository's content identity ("addr|size|crc"). See the package doc.
var startdCache sync.Map

// fetchStartd returns the daemon payload from repoAddr, consulting the
// process-wide cache first. It reports whether the bytes came from cache.
func fetchStartd(ftp *gridftp.Client, repoAddr string) (blob []byte, cached bool, err error) {
	size, crc, exists, err := ftp.Stat(repoAddr, StartdBlob)
	if err != nil {
		return nil, false, err
	}
	if !exists {
		return nil, false, fmt.Errorf("glidein: %s not found on %s", StartdBlob, repoAddr)
	}
	key := fmt.Sprintf("%s|%d|%d", repoAddr, size, crc)
	if v, ok := startdCache.Load(key); ok {
		return v.([]byte), true, nil
	}
	blob, err = ftp.Get(repoAddr, StartdBlob)
	if err != nil {
		return nil, false, err
	}
	startdCache.Store(key, blob)
	return blob, false, nil
}

// InstallBootstrap registers the pilot program on a site's GRAM runtime.
// jobRuntime is the job registry glided-in slots execute from — the
// stand-in for the executables Condor's Shadow would transfer at
// activation time (see DESIGN.md substitutions).
func InstallBootstrap(siteRuntime *gram.FuncRuntime, jobRuntime *condor.Runtime, anchor *gsi.Certificate, cred *gsi.Credential, clock gsi.Clock) {
	siteRuntime.Register(BootstrapProgram, func(ctx context.Context, args []string, _ []byte, stdout, stderr io.Writer, env map[string]string) error {
		cfg, err := parsePilotArgs(args)
		if err != nil {
			fmt.Fprintf(stderr, "glidein: %v\n", err)
			return err
		}
		// Step 1: retrieve the Condor executables from the central
		// repository (GSI-authenticated GridFTP).
		ftp := gridftp.NewClient(cred, clock, 2)
		defer ftp.Close()
		blob, cached, err := fetchStartd(ftp, cfg.repoAddr)
		if err != nil {
			fmt.Fprintf(stderr, "glidein: fetch binaries: %v\n", err)
			return fmt.Errorf("glidein: fetch binaries: %w", err)
		}
		if cached {
			fmt.Fprintf(stdout, "glidein: reused cached %d-byte startd payload\n", len(blob))
		} else {
			fmt.Fprintf(stdout, "glidein: fetched %d-byte startd payload\n", len(blob))
		}

		// Step 2: start the daemon and join the user's personal pool.
		shutdown := make(chan string, 1)
		sd, err := condor.NewStartd(condor.StartdConfig{
			Name:              cfg.slotName,
			MemoryMB:          pilotMemoryMB,
			CollectorAddr:     cfg.collectorAddr,
			Runtime:           jobRuntime,
			Credential:        cred,
			Anchor:            anchor,
			Clock:             clock,
			AdvertiseInterval: cfg.advertise,
			Lease:             cfg.lease,
			IdleTimeout:       cfg.idle,
			OnShutdown:        func(reason string) { shutdown <- reason },
			CustomAd: func(ad *classad.Ad) {
				ad.SetString("GlideIn", "true")
				ad.SetString("GlideInSite", cfg.siteLabel)
			},
		})
		if err != nil {
			fmt.Fprintf(stderr, "glidein: startd: %v\n", err)
			return err
		}
		// Step 3: run until the daemon retires itself or the site
		// reclaims the allocation (walltime/vacate via ctx).
		select {
		case reason := <-shutdown:
			fmt.Fprintf(stdout, "glidein: shut down: %s\n", reason)
			return nil
		case <-ctx.Done():
			sd.Shutdown("allocation reclaimed by site")
			<-shutdown
			fmt.Fprintf(stdout, "glidein: shut down: allocation reclaimed\n")
			return nil
		}
	})
}

// pilotMemoryMB is the memory every glided-in slot advertises.
const pilotMemoryMB = 512

// pilotConfig is the decoded argument vector of a pilot job.
type pilotConfig struct {
	collectorAddr string
	repoAddr      string
	slotName      string
	siteLabel     string
	lease         time.Duration
	idle          time.Duration
	advertise     time.Duration
}

func pilotArgs(cfg pilotConfig) []string {
	return []string{
		cfg.collectorAddr, cfg.repoAddr, cfg.slotName, cfg.siteLabel,
		cfg.lease.String(), cfg.idle.String(), cfg.advertise.String(),
	}
}

func parsePilotArgs(args []string) (pilotConfig, error) {
	if len(args) != 7 {
		return pilotConfig{}, fmt.Errorf("pilot wants 7 args, got %d", len(args))
	}
	lease, err := time.ParseDuration(args[4])
	if err != nil {
		return pilotConfig{}, fmt.Errorf("bad lease %q", args[4])
	}
	idle, err := time.ParseDuration(args[5])
	if err != nil {
		return pilotConfig{}, fmt.Errorf("bad idle %q", args[5])
	}
	adv, err := time.ParseDuration(args[6])
	if err != nil {
		return pilotConfig{}, fmt.Errorf("bad advertise %q", args[6])
	}
	return pilotConfig{
		collectorAddr: args[0],
		repoAddr:      args[1],
		slotName:      args[2],
		siteLabel:     args[3],
		lease:         lease,
		idle:          idle,
		advertise:     adv,
	}, nil
}

// FactoryConfig configures a GlideIn factory.
type FactoryConfig struct {
	// CollectorAddr is the user's personal pool collector.
	CollectorAddr string
	// RepoAddr is the GridFTP repository holding the daemon payload.
	RepoAddr string
	// Credential and Clock authenticate GRAM submissions.
	Credential *gsi.Credential
	Clock      gsi.Clock
	// Lease and IdleTimeout configure pilot self-retirement.
	Lease       time.Duration
	IdleTimeout time.Duration
	// AdvertiseInterval for glided-in slots (default 100ms; tests and
	// benches shorten further).
	AdvertiseInterval time.Duration
	// Delegate, when positive, forwards a proxy of this lifetime with
	// each pilot.
	Delegate time.Duration
}

// Factory submits and tracks pilots.
type Factory struct {
	cfg  FactoryConfig
	gc   *gram.Client
	mu   sync.Mutex
	n    int
	sent []Pilot
}

// Pilot records one submitted pilot.
type Pilot struct {
	Contact  gram.JobContact
	Site     string
	SlotName string
}

// NewFactory creates a factory.
func NewFactory(cfg FactoryConfig) *Factory {
	if cfg.AdvertiseInterval == 0 {
		cfg.AdvertiseInterval = 100 * time.Millisecond
	}
	if cfg.Lease == 0 {
		cfg.Lease = time.Hour
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = time.Minute
	}
	return &Factory{cfg: cfg, gc: gram.NewClient(cfg.Credential, cfg.Clock)}
}

// Client exposes the underlying GRAM client (for timeouts in tests).
func (f *Factory) Client() *gram.Client { return f.gc }

// SubmitPilot sends one pilot to the site behind gkAddr and commits it.
func (f *Factory) SubmitPilot(gkAddr, siteLabel string) (Pilot, error) {
	f.mu.Lock()
	f.n++
	slot := fmt.Sprintf("glidein-%s-%d", siteLabel, f.n)
	f.mu.Unlock()
	spec := gram.JobSpec{
		Executable: string(gram.Program(BootstrapProgram)),
		Args: pilotArgs(pilotConfig{
			collectorAddr: f.cfg.CollectorAddr,
			repoAddr:      f.cfg.RepoAddr,
			slotName:      slot,
			siteLabel:     siteLabel,
			lease:         f.cfg.Lease,
			idle:          f.cfg.IdleTimeout,
			advertise:     f.cfg.AdvertiseInterval,
		}),
	}
	contact, err := f.gc.Submit(gkAddr, spec, gram.SubmitOptions{
		SubmissionID: gram.NewSubmissionID(),
		Delegate:     f.cfg.Delegate,
	})
	if err != nil {
		return Pilot{}, err
	}
	if err := f.gc.Commit(contact); err != nil {
		return Pilot{}, err
	}
	p := Pilot{Contact: contact, Site: siteLabel, SlotName: slot}
	f.mu.Lock()
	f.sent = append(f.sent, p)
	f.mu.Unlock()
	return p, nil
}

// Flood submits n pilots to every site — the high-throughput strategy of
// §4.4: "flood candidate resources with requests", binding jobs to
// whichever slot materializes first (§5's delayed binding).
func (f *Factory) Flood(sites map[string]string, perSite int) ([]Pilot, error) {
	var out []Pilot
	for label, gk := range sites {
		for i := 0; i < perSite; i++ {
			p, err := f.SubmitPilot(gk, label)
			if err != nil {
				return out, fmt.Errorf("glidein: flood %s: %w", label, err)
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// Pilots returns all pilots submitted so far.
func (f *Factory) Pilots() []Pilot {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Pilot(nil), f.sent...)
}

// Status fetches the GRAM status of a pilot.
func (f *Factory) Status(p Pilot) (gram.StatusInfo, error) {
	return f.gc.Status(p.Contact)
}

// Close releases the GRAM client.
func (f *Factory) Close() { f.gc.Close() }
