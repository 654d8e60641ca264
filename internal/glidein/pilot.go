// The gatekeeper pilot is the elastic-pool variant of the GlideIn
// bootstrap: instead of a single Startd slot joining a Condor pool, the
// pilot brings up a complete private *GRAM site* (gatekeeper + LRM) inside
// the host allocation and advertises its contact address to the user's
// Collector. The agent's broker then treats the pilot like any other
// schedulable site — §5's delayed binding, but at the granularity the
// Condor-G agent itself schedules at. The same runaway-daemon guards
// apply: the pilot retires itself when its lease expires or when it has
// been idle too long, whether or not the provisioner that launched it is
// still alive.
package glidein

import (
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"condorg/internal/condor"
	"condorg/internal/gram"
	"condorg/internal/gridftp"
	"condorg/internal/gsi"
	"condorg/internal/lrm"
	"condorg/internal/wire"
)

// GatekeeperPilotProgram is the name the elastic pilot dispatches to in a
// host site's GRAM runtime.
const GatekeeperPilotProgram = "glidein-gatekeeper"

// testPilotGatekeeperFaults, when non-nil, is installed on every pilot
// gatekeeper brought up by InstallGatekeeperPilot. Tests use it to slow
// the staging plane enough to retire a pilot deterministically while a
// job is mid-stage-in; production callers leave it nil.
var testPilotGatekeeperFaults *wire.Faults

// Collector ad attributes published by gatekeeper pilots. The provisioner
// reads these to learn pilot contact addresses and idleness.
const (
	AdAttrGlideIn    = "GlideIn"           // "true" on every glidein ad
	AdAttrSite       = "GlideInSite"       // host site label the pilot runs on
	AdAttrGatekeeper = "GlideInGatekeeper" // pilot's own gatekeeper address
	AdAttrActiveJobs = "ActiveJobs"        // non-terminal jobs on the pilot site
)

// gkPilotConfig is the decoded argument vector of a gatekeeper pilot job.
type gkPilotConfig struct {
	collectorAddr string
	repoAddr      string
	slotName      string
	siteLabel     string
	cpus          int
	lease         time.Duration
	idle          time.Duration
	advertise     time.Duration
}

func gkPilotArgs(cfg gkPilotConfig) []string {
	return []string{
		cfg.collectorAddr, cfg.repoAddr, cfg.slotName, cfg.siteLabel,
		strconv.Itoa(cfg.cpus),
		cfg.lease.String(), cfg.idle.String(), cfg.advertise.String(),
	}
}

func parseGkPilotArgs(args []string) (gkPilotConfig, error) {
	if len(args) != 8 {
		return gkPilotConfig{}, fmt.Errorf("gatekeeper pilot wants 8 args, got %d", len(args))
	}
	cpus, err := strconv.Atoi(args[4])
	if err != nil || cpus <= 0 {
		return gkPilotConfig{}, fmt.Errorf("bad cpus %q", args[4])
	}
	lease, err := time.ParseDuration(args[5])
	if err != nil {
		return gkPilotConfig{}, fmt.Errorf("bad lease %q", args[5])
	}
	idle, err := time.ParseDuration(args[6])
	if err != nil {
		return gkPilotConfig{}, fmt.Errorf("bad idle %q", args[6])
	}
	adv, err := time.ParseDuration(args[7])
	if err != nil {
		return gkPilotConfig{}, fmt.Errorf("bad advertise %q", args[7])
	}
	return gkPilotConfig{
		collectorAddr: args[0],
		repoAddr:      args[1],
		slotName:      args[2],
		siteLabel:     args[3],
		cpus:          cpus,
		lease:         lease,
		idle:          idle,
		advertise:     adv,
	}, nil
}

// InstallGatekeeperPilot registers the elastic pilot program on a host
// site's GRAM runtime. jobRuntime is the program registry user jobs
// execute from once they are bound to the pilot's private gatekeeper —
// the host site installs the same runtime it serves direct submissions
// with, so a job runs identically either way.
func InstallGatekeeperPilot(siteRuntime *gram.FuncRuntime, jobRuntime gram.Runtime, anchor *gsi.Certificate, cred *gsi.Credential, clock gsi.Clock) {
	siteRuntime.Register(GatekeeperPilotProgram, func(ctx context.Context, args []string, _ []byte, stdout, stderr io.Writer, _ map[string]string) error {
		cfg, err := parseGkPilotArgs(args)
		if err != nil {
			fmt.Fprintf(stderr, "glidein: %v\n", err)
			return err
		}
		// Step 1: retrieve the Condor executables from the central
		// repository (GSI-authenticated GridFTP), same path and cache as
		// the Startd bootstrap.
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

		// Step 2: bring up the private gatekeeper inside the allocation.
		stateDir, err := os.MkdirTemp("", "glidein-gk-")
		if err != nil {
			return fmt.Errorf("glidein: state dir: %w", err)
		}
		defer os.RemoveAll(stateDir)
		cluster, err := lrm.NewCluster(lrm.Config{Name: cfg.slotName, Cpus: cfg.cpus})
		if err != nil {
			return fmt.Errorf("glidein: cluster: %w", err)
		}
		site, err := gram.NewSite(gram.SiteConfig{
			Name:             cfg.slotName,
			Anchor:           anchor,
			Cluster:          cluster,
			Runtime:          jobRuntime,
			StateDir:         stateDir,
			Clock:            clock,
			GatekeeperFaults: testPilotGatekeeperFaults,
		})
		if err != nil {
			cluster.Close()
			return fmt.Errorf("glidein: gatekeeper: %w", err)
		}
		fmt.Fprintf(stdout, "glidein: gatekeeper up at %s\n", site.GatekeeperAddr())

		// Step 3: advertise the gatekeeper to the user's pool and watch
		// the self-retirement guards. Single goroutine: the loop IS the
		// advertiser, so stopping the loop stops re-advertisement before
		// the invalidation below — an in-flight ad can never land after
		// it and resurrect the slot.
		cc := condor.NewCollectorClient(cfg.collectorAddr, cred, clock)
		defer cc.Close()
		advertise := func() {
			ad := condor.MachineAd(cfg.slotName, "x86_64", pilotMemoryMB, site.GatekeeperAddr())
			ad.SetString(AdAttrGlideIn, "true")
			ad.SetString(AdAttrSite, cfg.siteLabel)
			ad.SetString(AdAttrGatekeeper, site.GatekeeperAddr())
			ad.SetInt(AdAttrActiveJobs, int64(site.ActiveJobs()))
			cc.Advertise(ad, 3*cfg.advertise)
		}
		advertise()
		start := time.Now()
		lastBusy := start
		ticker := time.NewTicker(cfg.advertise)
		defer ticker.Stop()
		reason := ""
		for reason == "" {
			select {
			case <-ctx.Done():
				reason = "allocation reclaimed by site"
			case <-ticker.C:
				if time.Since(start) >= cfg.lease {
					reason = "lease expired"
					break
				}
				if site.ActiveJobs() > 0 {
					lastBusy = time.Now()
				} else if time.Since(lastBusy) >= cfg.idle {
					reason = "idle timeout"
					break
				}
				advertise()
			}
		}
		ticker.Stop()
		cc.Invalidate("Machine", cfg.slotName)
		// Closing the site kills any job still on it; the agent classifies
		// those SiteLost and resubmits elsewhere exactly-once.
		site.Close()
		fmt.Fprintf(stdout, "glidein: shut down: %s\n", reason)
		return nil
	})
}
