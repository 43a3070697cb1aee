// Canonical committer: the single authority over result ordering for
// both the sequential and the parallel campaign paths.
//
// Specs are committed strictly in canonical (slot-rank) order, so every
// newly recorded outcome appends to the Result already sorted. A resumed
// campaign always comes from an outcome log, and a log is a contiguous
// rank prefix [0, N): the committer seeds the Result with the resumed
// failures, recoveries, and quarantines (which arrive in rank order),
// replays the first N slots into the quarantine breaker without
// re-measuring them, and appends everything after. There is no rank
// re-derivation and no merge of out-of-order records: a Resume that is
// not exactly the first N slots is refused up front.
package study

import (
	"errors"
	"fmt"
	"time"

	"vpnscope/internal/flightrec"
	"vpnscope/internal/telemetry"
)

// committerWorker tags flight-recorder events emitted on the committing
// goroutine (as opposed to a measuring worker).
const committerWorker = -1

// provState is the per-provider circuit-breaker state the committer
// replays in slot order — the one intra-provider ordering dependency of
// the campaign.
type provState struct {
	streak      int  // consecutive vantage-point failures
	quarantined bool // breaker tripped (this run or a resumed one)
}

// committer assembles the canonical campaign Result. It is not
// goroutine-safe: the parallel executor drives it from a single
// committing goroutine.
type committer struct {
	cfg *RunConfig
	res *Result // live canonical result; slices only ever append

	// resumed holds the outcome of every resumed slot, indexed by rank:
	// slots [0, len(resumed)) are replayed, never measured.
	resumed []vpOutcome
	prov    map[int]*provState // provider index → breaker state
	// provChunk amortizes provState allocation across providers.
	provChunk []provState

	// onQuarantine, when set, is notified the moment a provider's
	// breaker closes (fresh trip or resumed-skip replay). The parallel
	// executor uses it to flag workers off the provider's remaining
	// slots.
	onQuarantine func(provIdx int)
}

// newCommitter builds the committer for specs, absorbing cfg.Resume.
func newCommitter(cfg *RunConfig, specs []slotSpec) (*committer, error) {
	c := &committer{cfg: cfg, res: &Result{}, prov: make(map[int]*provState)}
	prev := cfg.Resume
	if prev == nil {
		return c, nil
	}
	if cfg.Stream == nil {
		// Resumed reports live only in the caller's outcome log; without
		// a stream continuing that log they would silently vanish.
		return nil, errors.New("study: RunConfig.Resume requires Stream (resumed reports live in the caller's outcome log)")
	}
	resumed, err := resumedPrefix(prev, specs)
	if err != nil {
		return nil, err
	}
	c.resumed = resumed
	c.res.VPsAttempted = prev.VPsAttempted
	c.res.ConnectFailures = append(c.res.ConnectFailures, prev.ConnectFailures...)
	c.res.Recoveries = append(c.res.Recoveries, prev.Recoveries...)
	for _, q := range prev.Quarantines {
		q.SkippedVPs = append([]string(nil), q.SkippedVPs...)
		c.res.Quarantines = append(c.res.Quarantines, q)
	}
	return c, nil
}

// resumedPrefix checks that prev holds exactly the outcomes of
// specs[:prev.VPsAttempted], in rank order, and classifies each one. It
// walks the three record lists with one cursor each: every slot of the
// prefix must be the next unconsumed report, failure, or quarantine
// skip, and nothing may be left over.
func resumedPrefix(prev *Result, specs []slotSpec) ([]vpOutcome, error) {
	n := prev.VPsAttempted
	if n > len(specs) {
		return nil, fmt.Errorf("study: resume holds %d outcomes but the campaign has %d slots", n, len(specs))
	}
	out := make([]vpOutcome, n)
	var ri, fi, qi, si int
	for i, s := range specs[:n] {
		switch {
		case ri < len(prev.Reports) && prev.Reports[ri].Provider == s.provider && prev.Reports[ri].VPLabel == s.label:
			out[i] = outcomeMeasured
			ri++
		case fi < len(prev.ConnectFailures) && prev.ConnectFailures[fi].Provider == s.provider && prev.ConnectFailures[fi].VPLabel == s.label:
			out[i] = outcomeFailed
			fi++
		case qi < len(prev.Quarantines) && prev.Quarantines[qi].Provider == s.provider &&
			si < len(prev.Quarantines[qi].SkippedVPs) && prev.Quarantines[qi].SkippedVPs[si] == s.label:
			out[i] = outcomeSkipped
			if si++; si == len(prev.Quarantines[qi].SkippedVPs) {
				qi, si = qi+1, 0
			}
		default:
			return nil, fmt.Errorf("study: resume is not the first %d slots: slot %d (%s %s) has no resumed outcome in rank order",
				n, i, s.provider, s.label)
		}
	}
	switch {
	case ri < len(prev.Reports):
		return nil, fmt.Errorf("study: resume is not the first %d slots: report for %s %s lies outside them",
			n, prev.Reports[ri].Provider, prev.Reports[ri].VPLabel)
	case fi < len(prev.ConnectFailures):
		return nil, fmt.Errorf("study: resume is not the first %d slots: failure for %s %s lies outside them",
			n, prev.ConnectFailures[fi].Provider, prev.ConnectFailures[fi].VPLabel)
	case qi < len(prev.Quarantines):
		return nil, fmt.Errorf("study: resume is not the first %d slots: quarantine skip for %s lies outside them",
			n, prev.Quarantines[qi].Provider)
	}
	return out, nil
}

func (c *committer) provState(idx int) *provState {
	st, ok := c.prov[idx]
	if !ok {
		if len(c.provChunk) == 0 {
			c.provChunk = make([]provState, 16)
		}
		st = &c.provChunk[0]
		c.provChunk = c.provChunk[1:]
		c.prov[idx] = st
	}
	return st
}

// prepare advances the canonical state to spec s and reports whether s
// still needs a measurement. A resumed slot replays its outcome into
// the breaker state (no re-measurement, nothing streamed); otherwise
// prepare trips the breaker when the streak demands it and skip-commits
// (record + stream) when the provider is quarantined.
func (c *committer) prepare(s slotSpec) (needMeasure bool, err error) {
	st := c.provState(s.provIdx)
	if s.slot < len(c.resumed) {
		if tel := telemetry.Active(); tel != nil {
			tel.M.SlotsDone.Add(1)
			tel.M.SlotsResumed.Add(1)
		}
		c.cfg.Flight.Record(flightrec.Event{
			Kind: flightrec.SlotResume, Worker: committerWorker,
			Slot: s.slot, Provider: s.provider, VP: s.label,
		})
		switch c.resumed[s.slot] {
		case outcomeMeasured:
			st.streak = 0
		case outcomeFailed:
			st.streak++
		case outcomeSkipped:
			if !st.quarantined {
				st.quarantined = true
				if c.onQuarantine != nil {
					c.onQuarantine(s.provIdx)
				}
			}
		}
		return false, nil
	}
	if !st.quarantined && c.cfg.QuarantineAfter > 0 && st.streak >= c.cfg.QuarantineAfter {
		// Providers' slots are contiguous and commit in order, so a
		// fresh trip record lands after every earlier provider's.
		c.res.Quarantines = append(c.res.Quarantines, Quarantine{Provider: s.provider, TrippedAfter: st.streak})
		st.quarantined = true
		if tel := telemetry.Active(); tel != nil {
			tel.M.QuarantineTrips.Add(1)
		}
		c.cfg.Flight.Record(flightrec.Event{
			Kind: flightrec.QuarantineTrip, Worker: committerWorker,
			Slot: s.slot, Provider: s.provider, V1: int64(st.streak),
		})
		if c.onQuarantine != nil {
			c.onQuarantine(s.provIdx)
		}
	}
	if st.quarantined {
		c.res.VPsAttempted++
		if tel := telemetry.Active(); tel != nil {
			tel.M.SlotsDone.Add(1)
			tel.M.QuarantineSkipped.Add(1)
		}
		// The provider's quarantine is the newest record: it was either
		// tripped just now or resumed as the prefix's last provider.
		q := &c.res.Quarantines[len(c.res.Quarantines)-1]
		q.SkippedVPs = append(q.SkippedVPs, s.label)
		c.cfg.Flight.Record(flightrec.Event{
			Kind: flightrec.QuarantineSkip, Worker: committerWorker,
			Slot: s.slot, Provider: s.provider, VP: s.label,
		})
		return false, c.stream(Outcome{Rank: s.slot, Skip: &SkippedVP{
			Provider:     s.provider,
			VPLabel:      s.label,
			TrippedAfter: q.TrippedAfter,
		}})
	}
	return true, nil
}

// commit records a fresh measurement outcome for s (prepare must have
// returned needMeasure) and streams it.
//
// Deterministic campaign telemetry is recorded here, not at measure
// time: the committer runs single-threaded in canonical slot order and
// never sees the speculative slots the parallel executor discards, so
// the `campaign` counters and virtual-time histograms come out
// identical for any worker count.
func (c *committer) commit(s slotSpec, out vpResult) error {
	st := c.provState(s.provIdx)
	c.res.VPsAttempted++
	o := Outcome{Rank: s.slot}
	if out.failure != nil {
		c.res.ConnectFailures = append(c.res.ConnectFailures, *out.failure)
		st.streak++
		o.Failure = out.failure
	} else {
		if out.recovery != nil {
			c.res.Recoveries = append(c.res.Recoveries, *out.recovery)
			o.Recovery = out.recovery
		}
		if c.cfg.Stream == nil {
			c.res.Reports = append(c.res.Reports, out.report)
		}
		o.Report = out.report
		st.streak = 0
	}
	if tel := telemetry.Active(); tel != nil {
		tel.M.SlotsDone.Add(1)
		tel.M.SlotsCommitted.Add(1)
		d := out.faultDelta
		tel.M.AddCommittedFaults(int64(d.Dropped), int64(d.Flapped), int64(d.Refused),
			int64(d.Delayed), int64(d.Blackouts), int64(d.TunnelResets))
		if out.failure != nil {
			tel.M.ConnectFailures.Add(1)
		} else {
			tel.M.Reports.Add(1)
			if out.recovery != nil {
				tel.M.Recoveries.Add(1)
			}
			if rep := out.report; rep != nil {
				tel.SuiteVirtual.Observe(rep.FinishedAt - rep.StartedAt)
				for _, tt := range rep.TestTimings {
					tel.ObserveTest(tt.Test, tt.Virtual)
				}
			}
		}
	}
	if fr := c.cfg.Flight; fr != nil {
		detail := "measured"
		if out.failure != nil {
			detail = "failed"
		}
		fr.Record(flightrec.Event{
			Kind: flightrec.Commit, Worker: committerWorker,
			Slot: s.slot, Provider: s.provider, VP: s.label, Detail: detail,
		})
	}
	return c.stream(o)
}

// stream hands one fresh outcome to the caller's streaming sink (a
// no-op for an in-memory run). It only ever runs on the committing
// goroutine, so outcomes arrive strictly in rank order for any worker
// count.
func (c *committer) stream(o Outcome) error {
	if c.cfg.Stream == nil {
		return nil
	}
	tel := telemetry.Active()
	fr := c.cfg.Flight
	var t0 time.Time
	if tel != nil || fr != nil {
		t0 = time.Now()
	}
	err := c.cfg.Stream(o)
	if tel != nil || fr != nil {
		d := time.Since(t0)
		if tel != nil {
			tel.M.Checkpoints.Add(1)
			tel.CheckpointWall.Observe(d)
		}
		fr.Record(flightrec.Event{
			Kind: flightrec.Checkpoint, Worker: committerWorker,
			Slot: o.Rank, Detail: "stream", V1: int64(d),
		})
	}
	if err != nil {
		return fmt.Errorf("study: stream: %w", err)
	}
	return nil
}
