package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"vpnscope/internal/analysis"
	"vpnscope/internal/faultsim"
	"vpnscope/internal/flightrec"
	"vpnscope/internal/results"
	"vpnscope/internal/study"
	"vpnscope/internal/vpn"
	"vpnscope/internal/vpntest"
)

// paperSeed is the seed of the paper's world, the default workload
// seed. The §6 verdict counts below are properties of this world: at
// other seeds the measured verdicts legitimately differ, and the
// campaigns are checked against their own sequential reference run.
const paperSeed = 2018

// setupReps is how many cold starts a run times for setup_s. Each
// starts from a freshly collected heap, so no rep pays for an earlier
// one's garbage.
const setupReps = 15

// ringEvents sizes the flight recorder a campaign carries, large enough
// that the first commit of the biggest campaign is never overwritten.
const ringEvents = 1 << 16

// verdicts is the §6 summary a campaign is checked by.
type verdicts struct {
	DNSLeakers, IPv6Leakers, VirtualVPs, FailOpen, Applicable, Proxies int
}

// paperVerdicts are the paper's §6 counts (Table 6, §6.4.2, §6.5,
// §6.2.1), reproduced by the lossy study at paperSeed.
var paperVerdicts = verdicts{DNSLeakers: 2, IPv6Leakers: 12, VirtualVPs: 6, FailOpen: 25, Applicable: 43, Proxies: 5}

func deriveVerdicts(reports analysis.Reports, cfg *vpntest.Config) verdicts {
	leaks := analysis.Leaks(reports)
	return verdicts{
		DNSLeakers:  len(leaks.DNSLeakers),
		IPv6Leakers: len(leaks.IPv6Leakers),
		VirtualVPs:  len(analysis.DetectVirtualVPs(reports, cfg).Providers),
		FailOpen:    len(leaks.FailOpen),
		Applicable:  leaks.Applicable,
		Proxies:     len(analysis.TransparentProxies(reports)),
	}
}

// testedOut is what one tested-study campaign produced and cost.
type testedOut struct {
	wall, ttfo               float64
	build, runS, save, verdS float64
	runCPU                   float64
	envelope                 [32]byte
	envelopeBytes            int
	verdicts                 verdicts
	slots, reports           int
	failures, recoveries     int
	quarantined              int
	allocs, allocBytes, gcs  uint64
}

// testedCampaign runs the paper's study once the way the one-shot CLI
// does: build the world, run the lossy campaign, save the envelope to a
// file, derive the §6 verdicts. tr is nil for an untraced campaign;
// profile, when set, receives the campaign's CPU profile.
func testedCampaign(r *run, parallel int, tr *tracer, group, profile string) (testedOut, error) {
	var out testedOut
	var ms0 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	if profile != "" {
		f, err := os.Create(profile)
		if err != nil {
			return out, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return out, err
		}
		defer pprof.StopCPUProfile()
	}
	ring := flightrec.NewRing(ringEvents)
	path := filepath.Join(r.work, "tested.result.json")

	t0 := time.Now()
	root := tr.begin("campaign", group, 0)
	sp := tr.begin("study.build", group, root)
	w, err := study.Build(study.Options{Seed: r.seed})
	tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("build: %w", err)
	}
	w.EnableFaults(faultsim.Lossy)
	t1, cpu0 := time.Now(), selfCPU()
	sp = tr.begin("study.run", group, root)
	res, err := w.RunWith(study.RunConfig{Parallel: parallel, Flight: ring})
	tr.end(sp)
	t2, cpu1 := time.Now(), selfCPU()
	if err != nil {
		return out, fmt.Errorf("run: %w", err)
	}
	sp = tr.begin("results.save", group, root)
	err = results.SaveFile(path, res, results.WithSeed(r.seed), results.WithFaultProfile("lossy"))
	tr.end(sp)
	t3 := time.Now()
	if err != nil {
		return out, fmt.Errorf("save: %w", err)
	}
	sp = tr.begin("analysis.verdicts", group, root)
	out.verdicts = deriveVerdicts(analysis.Slice(res.Reports), w.Config)
	tr.end(sp)
	tr.end(root)
	out.wall = since(t0)
	out.build, out.runS, out.save = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()
	out.verdS = out.wall - t3.Sub(t0).Seconds()
	out.runCPU = cpu1 - cpu0

	if tr != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		out.allocs, out.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
		out.gcs = uint64(ms1.NumGC - ms0.NumGC)
	}
	out.ttfo = firstCommit(ring, t0)
	env, err := os.ReadFile(path)
	if err != nil {
		return out, err
	}
	out.envelope, out.envelopeBytes = sha256.Sum256(env), len(env)
	out.slots, out.reports = res.VPsAttempted, len(res.Reports)
	out.failures, out.recoveries = len(res.ConnectFailures), len(res.Recoveries)
	for _, q := range res.Quarantines {
		out.quarantined += len(q.SkippedVPs)
	}
	return out, nil
}

// firstCommit returns the seconds from t0 to the campaign's first
// committed outcome, as stamped by its flight recorder (NaN if none).
func firstCommit(ring *flightrec.Ring, t0 time.Time) float64 {
	first := int64(math.MaxInt64)
	for _, ev := range ring.Snapshot() {
		if ev.Kind == flightrec.Commit {
			first = min(first, ev.WallNs)
		}
	}
	if first == math.MaxInt64 {
		return math.NaN()
	}
	return time.Unix(0, first).Sub(t0).Seconds()
}

// checkTested compares a campaign against the run's reference.
func checkTested(got, ref testedOut) []string {
	var problems []string
	if got.envelope != ref.envelope {
		problems = append(problems, fmt.Sprintf("envelope sha256 %x differs from the sequential reference %x", got.envelope[:8], ref.envelope[:8]))
	}
	if got.verdicts != ref.verdicts {
		problems = append(problems, fmt.Sprintf("verdicts %+v differ from the reference %+v", got.verdicts, ref.verdicts))
	}
	if got.slots != got.reports+got.failures+got.quarantined {
		problems = append(problems, fmt.Sprintf("%d slots attempted but %d reports + %d failures + %d skipped", got.slots, got.reports, got.failures, got.quarantined))
	}
	return problems
}

// testedStudy is the one-shot study workload: the paper's 62-provider
// audit under the lossy fault profile, Parallel = nproc, one envelope
// written per campaign.
func testedStudy(r *run, seconds float64, primary bool) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		study.ClearWorldTemplates()
		runtime.GC()
		t0 := time.Now()
		if _, err := study.Build(study.Options{Seed: r.seed}); err != nil {
			fatal("tested-study setup: %v", err)
		}
		setups = append(setups, since(t0))
	}
	r.set("setup_s", median(setups))

	// The warm-up campaign runs sequentially: it fills the caches and is
	// the reference every parallel campaign must reproduce byte for byte.
	ref, err := testedCampaign(r, 1, nil, "reference", "")
	if err != nil {
		fatal("tested-study reference campaign: %v", err)
	}
	var problems []string
	if r.seed == paperSeed && ref.verdicts != paperVerdicts {
		problems = append(problems, fmt.Sprintf("verdicts %+v, want the paper's %+v", ref.verdicts, paperVerdicts))
	}
	if ref.slots == 0 || ref.reports == 0 {
		problems = append(problems, "reference campaign measured nothing")
	}
	r.attempt("tested-study reference", problems)

	var plain, traced []testedOut
	var profiles []string
	start, cpu0, w0 := time.Now(), selfCPU(), wchar(0)
	for i := 0; ; i++ {
		enough := (!primary || len(plain) >= 1) && (!r.trace || len(traced) >= 1)
		if since(start) >= seconds && enough || since(start) >= seconds+maxOverrun {
			break
		}
		var tr *tracer
		profile := ""
		// Traced runs alternate plain and traced campaigns so the
		// tracing overhead is measured under the same conditions.
		if r.trace && (i%2 == 1 || !primary) {
			tr = r.tr
			profile = filepath.Join(r.work, fmt.Sprintf("tested-%d.pprof", i))
		}
		out, err := testedCampaign(r, r.nproc, tr, fmt.Sprintf("tested-%d", i), profile)
		what := fmt.Sprintf("tested-study campaign %d", i)
		if err != nil {
			r.attempt(what, []string{err.Error()})
			continue
		}
		r.attempt(what, checkTested(out, ref))
		if tr != nil {
			traced = append(traced, out)
			profiles = append(profiles, profile)
		} else {
			plain = append(plain, out)
		}
	}
	wall, n := since(start), float64(len(plain)+len(traced))
	all := append(append([]testedOut(nil), plain...), traced...)
	if primary && len(plain) > 0 {
		r.set("campaign_p50_s", median(pick(plain, func(o testedOut) float64 { return o.wall })))
		r.set("slots_per_s", sum(pick(all, func(o testedOut) float64 { return float64(o.slots) }))/wall)
		r.set("cpu_s_per_campaign", (selfCPU()-cpu0)/n)
		r.set("write_mb_per_campaign", (wchar(0)-w0)/1e6/n)
		r.set("peak_rss_mb", peakRSSMB(0))
	}
	if !r.trace || len(traced) == 0 {
		return
	}
	if primary && len(plain) > 0 {
		r.set("trace.overhead_share", median(pick(traced, func(o testedOut) float64 { return o.wall }))/
			median(pick(plain, func(o testedOut) float64 { return o.wall }))-1)
	}
	first := traced[0]
	r.set("study.ttfo_p50_s", median(pick(all, func(o testedOut) float64 { return o.ttfo })))
	r.set("study.build_s", median(pick(traced, func(o testedOut) float64 { return o.build })))
	r.set("study.run_s", median(pick(traced, func(o testedOut) float64 { return o.runS })))
	r.set("study.worker_busy_share", median(pick(traced, func(o testedOut) float64 { return o.runCPU / (o.runS * float64(r.nproc)) })))
	r.set("study.slots", float64(first.slots))
	r.set("study.reports", float64(first.reports))
	r.set("study.connect_failures", float64(first.failures))
	r.set("study.recoveries", float64(first.recoveries))
	r.set("study.quarantined_vps", float64(first.quarantined))
	r.set("results.save_s", median(pick(traced, func(o testedOut) float64 { return o.save })))
	r.set("results.envelope_mb", float64(first.envelopeBytes)/1e6)
	r.set("analysis.verdicts_s", median(pick(traced, func(o testedOut) float64 { return o.verdS })))
	r.set("runtime.allocs_per_slot", median(pick(traced, func(o testedOut) float64 { return float64(o.allocs) / float64(o.slots) })))
	r.set("runtime.alloc_kb_per_slot", median(pick(traced, func(o testedOut) float64 { return float64(o.allocBytes) / 1024 / float64(o.slots) })))
	r.set("runtime.gc_per_campaign", median(pick(traced, func(o testedOut) float64 { return float64(o.gcs) })))

	shares, samples, err := foldProfiles(profiles)
	if err != nil {
		r.attempt("tested-study profile fold", []string{err.Error()})
	} else {
		total := 0.0
		for l, v := range shares {
			r.set("cpu_share."+l, v)
			total += v
		}
		fmt.Fprintf(os.Stderr, "perfbench: folded %d profile samples from %d campaigns\n", samples, len(profiles))
		if math.Abs(total-1) > 1e-9 {
			r.attempt("tested-study profile fold", []string{fmt.Sprintf("shares sum to %v, not 1", total)})
		}
	}
	layerWalk(r)
}

// walkVPs is how many vantage points the layer walk replays per pass,
// and walkPasses how many passes it makes.
const (
	walkVPs    = 40
	walkPasses = 3
)

// layerWalk replays a fixed sample of vantage points outside the
// campaign runner, the way BenchmarkAblationPingOnlyVsFull does, so
// each layer's call is timed on its own: client stack, connect, every
// vpntest test, disconnect. It uses a separately built, fault-free
// world whose sampled vantage points are pinned fully reliable.
func layerWalk(r *run) {
	w, err := study.Build(study.Options{Seed: r.seed})
	if err != nil {
		r.attempt("layer walk", []string{err.Error()})
		return
	}
	var sample []*vpn.VantagePoint
	var names []string
	for _, p := range w.Providers {
		if p.Spec.Client == vpn.BrowserExtension || len(p.VPs) == 0 {
			continue
		}
		sample = append(sample, p.VPs[0])
		names = append(names, p.Name())
		if len(sample) == walkVPs {
			break
		}
	}
	for _, vp := range sample {
		vp.Host.Reliability = 1
	}
	tests := []func(*vpntest.Env) error{
		func(e *vpntest.Env) error { _, err := vpntest.RunGeolocation(e); return err },
		func(e *vpntest.Env) error { _, err := vpntest.RunPingSweep(e); return err },
		func(e *vpntest.Env) error { _, err := vpntest.RunDNSManipulation(e); return err },
		func(e *vpntest.Env) error { _, err := vpntest.RunRecursiveOrigin(e); return err },
		func(e *vpntest.Env) error { _, err := vpntest.RunProxyDetection(e); return err },
		func(e *vpntest.Env) error { _, err := vpntest.RunDOMCollection(e); return err },
		func(e *vpntest.Env) error { _, err := vpntest.RunTLS(e); return err },
		func(e *vpntest.Env) error { _, err := vpntest.RunLeakTests(e); return err },
		func(e *vpntest.Env) error { _, err := vpntest.RunTraceroutes(e, 3); return err },
		func(e *vpntest.Env) error { _, err := vpntest.RunWebRTCLeak(e); return err },
		func(e *vpntest.Env) error { _, err := vpntest.RunP2PDetection(e); return err },
		func(e *vpntest.Env) error { _, err := vpntest.RunTunnelFailure(e); return err },
	}
	var problems []string
	for pass := 0; pass < walkPasses; pass++ {
		for i, vp := range sample {
			group := fmt.Sprintf("walk-%d-%s-%s", pass, names[i], vp.ID())
			root := r.tr.begin("walk.vp", group, 0)
			sp := r.tr.begin("netsim.client_stack", group, root)
			stack, err := w.NewClientStack()
			r.tr.end(sp)
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s: client stack: %v", group, err))
				r.tr.end(root)
				continue
			}
			sp = r.tr.begin("vpn.connect", group, root)
			client, err := vpn.Connect(stack, vp)
			r.tr.end(sp)
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s: connect: %v", group, err))
				r.tr.end(root)
				continue
			}
			env := vpntest.NewEnv(w.Config, w.Baseline, stack, names[i], vp.ID(), vp.ClaimedCountry)
			suite := r.tr.begin("vpntest.suite", group, root)
			for j, test := range tests {
				sp = r.tr.begin("vpntest."+vpntestSpans[j], group, suite)
				// A test's own error is a measurement finding (the paper's
				// suite records it in the report), not a benchmark failure.
				_ = test(env)
				r.tr.end(sp)
			}
			r.tr.end(suite)
			sp = r.tr.begin("vpn.disconnect", group, root)
			client.Disconnect()
			r.tr.end(sp)
			r.tr.end(root)
		}
	}
	r.attempt("layer walk", problems)
	for _, name := range append(slices.Clone(vpntestSpans), "suite") {
		r.set("vpntest."+name+"_s", median(r.tr.durations("vpntest."+name)))
	}
	r.set("netsim.client_stack_s", median(r.tr.durations("netsim.client_stack")))
	r.set("vpn.connect_s", median(r.tr.durations("vpn.connect")))
	r.set("vpn.disconnect_s", median(r.tr.durations("vpn.disconnect")))
}
