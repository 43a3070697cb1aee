package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vpnscope/internal/ecosystem"
	"vpnscope/internal/results/shardlog"
	"vpnscope/internal/study"
	"vpnscope/internal/vpn"
)

// catalogOut is what one catalog-sweep campaign produced and cost.
type catalogOut struct {
	wall, ttfo              float64
	gaps, appends           []float64 // between and inside Stream calls
	seal, scan, logVerdicts float64
	merged, attempted       int
	hash                    [32]byte
	verdicts                verdicts
	allocs, allocBytes, gcs uint64
}

// catalogCampaign sweeps the whole catalog once, the way
// `vpnaudit -outcomes` does: every outcome streams into a fresh shard
// log, the log is sealed and merged with Scan, and the §6 verdicts are
// re-derived from the log alone. tr is nil for an untraced campaign.
func catalogCampaign(r *run, specs []vpn.ProviderSpec, dir string, tr *tracer, group string) (catalogOut, error) {
	var out catalogOut
	var ms0 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	t0 := time.Now()
	root := tr.begin("campaign", group, 0)
	lg, err := shardlog.Open(dir, shardlog.Meta{Seed: r.seed})
	if err != nil {
		return out, fmt.Errorf("open log: %w", err)
	}
	defer lg.Close()
	sp := tr.begin("study.build", group, root)
	w, err := study.Build(study.Options{Seed: r.seed, Providers: specs})
	tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("build: %w", err)
	}
	var last time.Time
	stream := func(o study.Outcome) error {
		now := time.Now()
		if last.IsZero() {
			out.ttfo = now.Sub(t0).Seconds()
		} else if tr != nil {
			out.gaps = append(out.gaps, now.Sub(last).Seconds())
		}
		if tr == nil {
			last = now
			return lg.Append(o)
		}
		sp := tr.begin("shardlog.append", group, root)
		err := lg.Append(o)
		tr.end(sp)
		last = time.Now()
		out.appends = append(out.appends, last.Sub(now).Seconds())
		return err
	}
	sp = tr.begin("study.run", group, root)
	res, err := w.RunWith(study.RunConfig{Parallel: r.nproc, Stream: stream})
	tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("run: %w", err)
	}
	t1 := time.Now()
	sp = tr.begin("shardlog.seal", group, root)
	err = lg.MarkComplete()
	tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("seal: %w", err)
	}
	t2 := time.Now()
	sp = tr.begin("shardlog.scan", group, root)
	err = lg.Scan(func(study.Outcome) error { out.merged++; return nil })
	tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("scan: %w", err)
	}
	t3 := time.Now()
	var logErr error
	sp = tr.begin("analysis.log_verdicts", group, root)
	out.verdicts = deriveVerdicts(lg.Reports(&logErr), w.Config)
	tr.end(sp)
	tr.end(root)
	out.wall = since(t0)
	if logErr != nil {
		return out, fmt.Errorf("re-reading log: %w", logErr)
	}
	out.seal, out.scan = t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()
	out.logVerdicts = out.wall - t3.Sub(t0).Seconds()
	out.attempted = res.VPsAttempted
	if tr != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		out.allocs, out.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
		out.gcs = uint64(ms1.NumGC - ms0.NumGC)
	}
	h := sha256.New()
	if err := lg.WriteMergedNDJSON(h); err != nil {
		return out, fmt.Errorf("hashing merged log: %w", err)
	}
	copy(out.hash[:], h.Sum(nil))
	return out, nil
}

// checkCatalog verifies one campaign, and against the run's first.
func checkCatalog(got catalogOut, ref *catalogOut) []string {
	var problems []string
	if got.merged == 0 || got.merged != got.attempted {
		problems = append(problems, fmt.Sprintf("merged %d outcomes, campaign attempted %d", got.merged, got.attempted))
	}
	if ref != nil && got.hash != ref.hash {
		problems = append(problems, fmt.Sprintf("merged-log sha256 %x differs from the first campaign's %x", got.hash[:8], ref.hash[:8]))
	}
	if ref != nil && got.verdicts != ref.verdicts {
		problems = append(problems, fmt.Sprintf("log verdicts %+v differ from the first campaign's %+v", got.verdicts, ref.verdicts))
	}
	return problems
}

// catalogSweep is the ecosystem-scale workload: all 200 catalog
// providers streamed through RunConfig.Stream into a shard log.
func catalogSweep(r *run, seconds float64, primary bool) {
	var setups, specTimes []float64
	var specs []vpn.ProviderSpec
	for i := 0; i < setupReps; i++ {
		study.ClearWorldTemplates()
		runtime.GC()
		t0 := time.Now()
		specs = ecosystem.CatalogSpecs(r.seed, ecosystem.BuildCatalog(r.seed), 0, 0)
		specTimes = append(specTimes, since(t0))
		if _, err := study.Build(study.Options{Seed: r.seed, Providers: specs}); err != nil {
			fatal("catalog-sweep setup: %v", err)
		}
		setups = append(setups, since(t0))
	}
	r.set("setup_s", median(setups))
	r.set("ecosystem.catalog_specs_s", median(specTimes))

	var ref *catalogOut
	var plain, traced []catalogOut
	start, cpu0, w0 := time.Now(), selfCPU(), wchar(0)
	for i := 0; ; i++ {
		enough := (!primary || len(plain) >= 1) && (!r.trace || len(traced) >= 1)
		if since(start) >= seconds && enough || since(start) >= seconds+maxOverrun {
			break
		}
		var tr *tracer
		if r.trace && (i%2 == 1 || !primary) {
			tr = r.tr
		}
		dir := filepath.Join(r.work, fmt.Sprintf("catalog-%d.outcomes", i))
		out, err := catalogCampaign(r, specs, dir, tr, fmt.Sprintf("catalog-%d", i))
		_ = os.RemoveAll(dir) // the next campaign starts from an empty log either way
		what := fmt.Sprintf("catalog-sweep campaign %d", i)
		if err != nil {
			r.attempt(what, []string{err.Error()})
			continue
		}
		r.attempt(what, checkCatalog(out, ref))
		if ref == nil {
			ref = &out
		}
		if tr != nil {
			traced = append(traced, out)
		} else {
			plain = append(plain, out)
		}
	}
	wall, n := since(start), float64(len(plain)+len(traced))
	all := append(append([]catalogOut(nil), plain...), traced...)
	if primary && len(plain) > 0 {
		r.set("campaign_p50_s", median(pick(plain, func(o catalogOut) float64 { return o.wall })))
		r.set("slots_per_s", sum(pick(all, func(o catalogOut) float64 { return float64(o.attempted) }))/wall)
		r.set("cpu_s_per_campaign", (selfCPU()-cpu0)/n)
		r.set("write_mb_per_campaign", (wchar(0)-w0)/1e6/n)
		r.set("peak_rss_mb", peakRSSMB(0))
	}
	if !r.trace || len(traced) == 0 {
		return
	}
	if primary && len(plain) > 0 {
		r.set("trace.overhead_share", median(pick(traced, func(o catalogOut) float64 { return o.wall }))/
			median(pick(plain, func(o catalogOut) float64 { return o.wall }))-1)
	}
	r.set("study.catalog_ttfo_p50_s", median(pick(all, func(o catalogOut) float64 { return o.ttfo })))
	var gaps, appends []float64
	for _, o := range traced {
		gaps = append(gaps, o.gaps...)
		appends = append(appends, o.appends...)
	}
	r.set("study.commit_gap_p50_s", median(gaps))
	r.set("study.commit_gap_max_s", maxOf(gaps))
	r.set("shardlog.append_p50_s", median(appends))
	r.set("shardlog.append_p99_s", percentile(appends, 0.99))
	r.set("shardlog.append_total_s", median(pick(traced, func(o catalogOut) float64 { return sum(o.appends) })))
	r.set("shardlog.seal_s", median(pick(traced, func(o catalogOut) float64 { return o.seal })))
	r.set("shardlog.scan_s", median(pick(traced, func(o catalogOut) float64 { return o.scan })))
	r.set("analysis.log_verdicts_s", median(pick(traced, func(o catalogOut) float64 { return o.logVerdicts })))
	r.set("runtime.catalog_allocs_per_slot", median(pick(traced, func(o catalogOut) float64 { return float64(o.allocs) / float64(o.attempted) })))
	r.set("runtime.catalog_alloc_kb_per_slot", median(pick(traced, func(o catalogOut) float64 { return float64(o.allocBytes) / 1024 / float64(o.attempted) })))
	r.set("runtime.catalog_gc_per_campaign", median(pick(traced, func(o catalogOut) float64 { return float64(o.gcs) })))
}
