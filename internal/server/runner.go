// Campaign execution. Every campaign, tested-catalog or ecosystem
// catalog mode, streams its outcomes into sharded append-only logs:
//
//	<id>.outcomes/                 the shard log (Months == 0)
//	<id>.outcomes/month-NNN/       one shard log per month (Months > 0)
//	<id>.result.json               the final artifact once done
//
// The final artifact depends on the mode. A tested-catalog campaign's
// result is the results envelope of the Result merged out of its sealed
// log — byte-identical to the envelope of the same spec run in one shot
// (RunOneShot). A catalog campaign's result is a bounded summary
// (counts only): its outcome set stays in the logs, served merged by
// the outcomes endpoint, and is never materialized in daemon memory.
//
// Recovery has one rule: a campaign with a spec and no result re-enters
// the queue, and the runner reopens each month's log from its recovered
// contiguous prefix.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"

	"vpnscope/internal/results"
	"vpnscope/internal/results/shardlog"
	"vpnscope/internal/study"
	"vpnscope/internal/vpn"
)

func (d *Daemon) outcomesDir(id string) string {
	return filepath.Join(d.cfg.StateDir, id+".outcomes")
}

// monthDir is the shard-log directory for one virtual month. Baseline-
// only campaigns use the flat outcomes dir, mirroring the CLI sweep.
func (d *Daemon) monthDir(id string, spec *CampaignSpec, month int) string {
	dir := d.outcomesDir(id)
	if spec.Months > 0 {
		dir = filepath.Join(dir, fmt.Sprintf("month-%03d", month))
	}
	return dir
}

// catalogSummary is the bounded final result of a catalog campaign:
// counts only, never the outcome set itself (that stays in the shard
// logs, served merged by the outcomes endpoint).
type catalogSummary struct {
	Catalog   int          `json:"catalog"`
	Months    int          `json:"months"`
	Providers int          `json:"providers"`
	Audits    []monthAudit `json:"audits"`
}

type monthAudit struct {
	Month       int `json:"month"`
	Outcomes    int `json:"outcomes"`
	Reports     int `json:"reports"`
	Failures    int `json:"failures"`
	Quarantined int `json:"quarantined"`
}

// runAudits executes a campaign spec: every month's audit in sequence
// (tested campaigns have only month 0), each streaming into its own
// shard log, then the durable result. Runs on runCampaign's fleet
// tokens, panic shield, and cancellation context.
func (d *Daemon) runAudits(ctx context.Context, c *campaign, need int) {
	summary := catalogSummary{Catalog: c.spec.Catalog, Months: c.spec.Months}
	if c.spec.Catalog > 0 {
		summary.Providers = len(c.spec.catalogEntries())
	}
	var merged *study.Result
	for m := 0; m <= c.spec.Months; m++ {
		if m > 0 {
			// Month worlds differ (drifted specs); the previous month's
			// cached template would only hold memory.
			study.ClearWorldTemplates()
		}
		res, err := d.auditMonth(ctx, c, need, m)
		if err != nil {
			d.finishCanceledOrFail(ctx, c, m, err)
			return
		}
		if c.spec.Catalog == 0 {
			merged = res
		}
		summary.Audits = append(summary.Audits, monthAudit{
			Month:       m,
			Outcomes:    res.VPsAttempted,
			Reports:     len(res.Reports),
			Failures:    len(res.ConnectFailures),
			Quarantined: len(res.Quarantines),
		})
	}
	var err error
	if merged != nil {
		err = results.SaveFile(d.resultPath(c.id), merged, c.spec.envelopeOptions()...)
	} else {
		err = writeFileAtomic(d.resultPath(c.id), func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(summary)
		})
	}
	if err != nil {
		d.failCampaign(c, fmt.Sprintf("saving result: %v", err))
		return
	}
	c.setState(StateDone, "")
	base := summary.Audits[0]
	d.cfg.Logf("campaign %s: done (%d month audits; month 0: %d reports, %d failures)",
		c.id, len(summary.Audits), base.Reports, base.Failures)
}

// finishCanceledOrFail maps a month-audit error to the campaign's
// terminal state: drain → interrupted (shard logs are durable, the next
// daemon start resumes), everything else → failed.
func (d *Daemon) finishCanceledOrFail(ctx context.Context, c *campaign, month int, err error) {
	if !errors.Is(err, study.ErrCanceled) {
		d.failCampaign(c, err.Error())
		return
	}
	cause := context.Cause(ctx)
	switch {
	case errors.Is(cause, errDraining):
		c.setState(StateInterrupted, "draining: shard log durable for resume")
		d.dumpFlight(c.flight, c.id, "drain", nil)
		d.cfg.Logf("campaign %s: interrupted by drain during month %d audit", c.id, month)
	case errors.Is(cause, errClientCanceled):
		d.failCampaign(c, "canceled by client")
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		d.failCampaign(c, fmt.Sprintf("deadline exceeded after %.0fs", c.spec.TimeoutSec))
	default:
		d.failCampaign(c, fmt.Sprintf("canceled: %v", cause))
	}
}

// auditMonth opens (and, after a crash, recovers) the month's shard log,
// continues the month's campaign into it — a sealed log skips the
// campaign, so re-audits of finished months are free — and merges it:
// the full Result for a tested campaign's envelope, the lean one (counts
// only; the outcome set stays in the log) for a catalog summary.
func (d *Daemon) auditMonth(ctx context.Context, c *campaign, need, month int) (*study.Result, error) {
	lg, err := shardlog.Open(d.monthDir(c.id, &c.spec, month), shardlog.Meta{
		Seed:         c.spec.Seed,
		Shards:       c.spec.Shards,
		FaultProfile: c.spec.FaultProfile,
		Month:        month,
	})
	if err != nil {
		return nil, err
	}
	defer lg.Close()
	if !lg.Complete() {
		if err := d.streamMonth(ctx, c, need, month, lg); err != nil {
			return nil, err
		}
	}
	if c.spec.Catalog > 0 {
		return lg.Resume()
	}
	return lg.Result()
}

// streamMonth builds the month's world and continues its campaign into
// lg, emitting progress events as outcomes become durable.
func (d *Daemon) streamMonth(ctx context.Context, c *campaign, need, month int, lg *shardlog.Log) error {
	w, err := buildWorldFn(&c.spec, month)
	if err != nil {
		return fmt.Errorf("building month %d world: %w", month, err)
	}
	slotsTotal := 0
	for _, p := range w.Providers {
		if p.Spec.Client == vpn.BrowserExtension {
			continue
		}
		slotsTotal += len(p.VPs)
	}
	c.mu.Lock()
	c.slotsTotal = slotsTotal
	c.mu.Unlock()

	cfg := c.spec.runConfig(ctx, need)
	cfg.Flight = c.flight
	// The stream callback runs on the committer goroutine, strictly in
	// rank order, after the outcome is durable — the counters need no
	// lock.
	reports, failures := 0, 0
	cfg.Stream = func(o study.Outcome) error {
		if o.Report != nil {
			reports++
		}
		if o.Failure != nil {
			failures++
		}
		c.emit(Event{Type: "progress", SlotsDone: lg.NextRank(), SlotsTotal: slotsTotal,
			Reports: reports, Failures: failures})
		return nil
	}
	return lg.Continue(cfg, func(cfg study.RunConfig) (*study.Result, error) {
		resumed := lg.NextRank()
		if cfg.Resume != nil {
			reports, failures = len(cfg.Resume.Reports), len(cfg.Resume.ConnectFailures)
		}
		c.emit(Event{Type: "started", SlotsTotal: slotsTotal, SlotsDone: resumed,
			Reports: reports, Failures: failures,
			Detail: fmt.Sprintf("month=%d workers=%d resumed=%d shards=%d",
				month, need, resumed, lg.Meta().Shards)})
		return runStudyFn(w, cfg)
	})
}
