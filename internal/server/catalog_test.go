// Catalog-mode daemon tests: spec validation, the streaming shard-log
// campaign lifecycle (real engine), drain/recovery byte-identity, the
// merged-outcomes endpoint, and the events-cursor and listener-timeout
// regressions.
package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vpnscope/internal/ecosystem"
	"vpnscope/internal/study"
)

func TestCatalogSpecValidation(t *testing.T) {
	d := newTestDaemon(t, Config{})
	bad := []CampaignSpec{
		{Catalog: -1},
		{Months: 1}, // months without catalog mode
		{Shards: -1},
		{Catalog: 5, Months: -1},
		{Catalog: 5, Shards: -2},
		{Catalog: 5, Providers: []string{"NoSuchProvider"}},
	}
	for _, spec := range bad {
		_, err := d.Submit(spec)
		var se *SubmitError
		if !errors.As(err, &se) || se.Status != 400 {
			t.Errorf("Submit(%+v) = %v, want 400 SubmitError", spec, err)
		}
	}

	// A catalog-mode subset may name synthetic providers the tested
	// catalog has never heard of.
	names := ecosystem.CatalogNames(ecosystem.BuildCatalogN(1, 80))
	synthetic := ""
	tested := map[string]bool{}
	for _, n := range ecosystem.TestedNames() {
		tested[n] = true
	}
	for _, n := range names {
		if !tested[n] {
			synthetic = n
			break
		}
	}
	if synthetic == "" {
		t.Fatal("first 80 catalog entries are all tested")
	}
	if _, err := d.Submit(CampaignSpec{Seed: 1, Providers: []string{synthetic}}); err == nil {
		t.Fatalf("legacy-mode Submit accepted synthetic provider %q", synthetic)
	}
	withSeams(t, instantWorld, func(*study.World, study.RunConfig) (*study.Result, error) {
		return &study.Result{}, nil
	})
	c := submitOK(t, d, CampaignSpec{Seed: 1, Catalog: 80, Providers: []string{synthetic}})
	waitState(t, c, StateDone)
	// Every campaign streams into a shard log, so tested mode takes a
	// shard count too.
	c = submitOK(t, d, CampaignSpec{Seed: 1, Shards: 4})
	waitState(t, c, StateDone)
}

// catalogStatusDone waits for the campaign then decodes its summary.
func catalogSummaryOf(t *testing.T, d *Daemon, c *campaign) catalogSummary {
	t.Helper()
	waitState(t, c, StateDone)
	raw, err := os.ReadFile(d.resultPath(c.id))
	if err != nil {
		t.Fatal(err)
	}
	var sum catalogSummary
	if err := json.Unmarshal(raw, &sum); err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestDaemonCatalogCampaign runs the real engine over a small catalog
// slice with one longitudinal re-audit: outcomes stream into per-month
// shard logs, the durable result is a bounded summary, and the
// outcomes endpoint serves the merged NDJSON per month.
func TestDaemonCatalogCampaign(t *testing.T) {
	spec := CampaignSpec{
		Seed:           2018,
		Catalog:        3,
		Months:         1,
		Shards:         2,
		Workers:        2,
		VPsPerProvider: 2,
		ExtraTLSHosts:  10,
		LandmarkCount:  20,
	}
	d := newTestDaemon(t, Config{FleetWorkers: 2})
	c := submitOK(t, d, spec)
	sum := catalogSummaryOf(t, d, c)

	if sum.Catalog != 3 || sum.Months != 1 || sum.Providers != 3 || len(sum.Audits) != 2 {
		t.Fatalf("summary = %+v, want 3 providers audited at 2 months", sum)
	}
	for m, audit := range sum.Audits {
		if audit.Month != m || audit.Outcomes == 0 {
			t.Fatalf("audit[%d] = %+v, want month %d with outcomes", m, audit, m)
		}
		dir := d.monthDir(c.id, &spec, m)
		if got := audit.Reports + audit.Failures + audit.Quarantined; got != audit.Outcomes {
			t.Fatalf("audit[%d] counts %d do not add up to %d outcomes", m, got, audit.Outcomes)
		}
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			t.Fatalf("month %d shard dir missing: %v", m, err)
		}
	}

	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	for m, audit := range sum.Audits {
		resp, err := http.Get(srv.URL + "/campaigns/" + c.id + "/outcomes?month=" + string(rune('0'+m)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("outcomes month %d = %d, want 200", m, resp.StatusCode)
		}
		lines, lastRank := 0, -1
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var o study.Outcome
			if err := json.Unmarshal(sc.Bytes(), &o); err != nil {
				t.Fatalf("bad NDJSON outcome: %v", err)
			}
			if o.Rank != lastRank+1 {
				t.Fatalf("outcome ranks not contiguous: %d after %d", o.Rank, lastRank)
			}
			lastRank = o.Rank
			lines++
		}
		resp.Body.Close()
		if lines != audit.Outcomes {
			t.Fatalf("outcomes month %d streamed %d lines, summary says %d", m, lines, audit.Outcomes)
		}
	}

	// Month beyond the audited window and non-catalog campaigns refuse.
	resp, err := http.Get(srv.URL + "/campaigns/" + c.id + "/outcomes?month=7")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("outcomes month 7 = %d, want 400", resp.StatusCode)
	}
}

// TestDaemonCatalogDrainResumeByteIdentical interrupts a streaming
// catalog campaign mid-run with a drain, recovers it in a second
// daemon, and checks the shard logs are byte-identical to the same
// spec run uninterrupted — the catalog-mode analogue of the legacy
// envelope byte-identity contract.
func TestDaemonCatalogDrainResumeByteIdentical(t *testing.T) {
	spec := CampaignSpec{
		Seed:           7,
		Catalog:        5,
		Shards:         3,
		Workers:        2,
		FaultProfile:   "lossy",
		VPsPerProvider: 2,
		ExtraTLSHosts:  10,
		LandmarkCount:  20,
	}
	stateDir := t.TempDir()
	d := newTestDaemon(t, Config{StateDir: stateDir, FleetWorkers: 2})
	c := submitOK(t, d, spec)
	deadline := time.Now().Add(30 * time.Second)
	for c.status().SlotsDone < 1 {
		if time.Now().After(deadline) {
			t.Fatal("campaign never streamed an outcome")
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.Drain()
	if st := c.status().State; st != StateInterrupted && st != StateDone {
		t.Fatalf("after drain: state = %s, want interrupted (or done if it outran us)", st)
	}

	d2 := newTestDaemon(t, Config{StateDir: stateDir, FleetWorkers: 2})
	c2, ok := d2.Campaign(c.id)
	if !ok {
		t.Fatalf("campaign %s not recovered", c.id)
	}
	sum := catalogSummaryOf(t, d2, c2)
	if len(sum.Audits) != 1 || sum.Audits[0].Outcomes == 0 {
		t.Fatalf("summary = %+v, want one non-empty audit", sum)
	}

	refDir := t.TempDir()
	ref := newTestDaemon(t, Config{StateDir: refDir, FleetWorkers: 2})
	rc := submitOK(t, ref, spec)
	waitState(t, rc, StateDone)

	got := readShardFiles(t, d2.monthDir(c.id, &spec, 0))
	want := readShardFiles(t, ref.monthDir(rc.id, &spec, 0))
	if len(got) != len(want) {
		t.Fatalf("shard sets differ: %d vs %d files", len(got), len(want))
	}
	for name, wb := range want {
		if !bytes.Equal(got[name], wb) {
			t.Fatalf("shard %s differs after drain+resume (%d vs %d bytes)", name, len(got[name]), len(wb))
		}
	}
}

func readShardFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "shard-") {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = b
		}
	}
	return out
}

// TestEventsFromBeyondEnd is the regression test for the events-cursor
// bug: `?from=` past the end of a terminal campaign's event log made
// the handler allocate a negative-length batch and panic the
// connection. It must instead answer 200 with an empty stream.
func TestEventsFromBeyondEnd(t *testing.T) {
	withSeams(t, instantWorld, func(*study.World, study.RunConfig) (*study.Result, error) {
		return &study.Result{}, nil
	})
	d := newTestDaemon(t, Config{FleetWorkers: 1})
	c := submitOK(t, d, CampaignSpec{Seed: 1})
	waitState(t, c, StateDone)

	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/campaigns/" + c.id + "/events?from=999")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("events?from=999 = %d, want 200", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading events stream: %v (handler panicked?)", err)
	}
	if len(body) != 0 {
		t.Fatalf("events?from=999 body = %q, want empty", body)
	}
}

// TestHTTPServerTimeouts is the regression test for the bare
// http.Server the daemon used to listen with: header reads and idle
// keep-alives must be bounded (slowloris), while whole-request read
// and write deadlines must stay unset so NDJSON streams can tail a
// campaign indefinitely.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NewServeMux())
	if srv.ReadHeaderTimeout <= 0 {
		t.Error("ReadHeaderTimeout unset: slowloris headers pin a goroutine forever")
	}
	if srv.IdleTimeout <= 0 {
		t.Error("IdleTimeout unset: parked keep-alive connections are never reaped")
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Error("ReadTimeout/WriteTimeout must stay zero: the events stream is long-lived")
	}
}
