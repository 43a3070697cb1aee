package main

import (
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func newTestRun(trace bool) *run {
	return &run{trace: trace, values: map[string]float64{}, absent: map[string]string{}}
}

// fillEndToEnd gives every end-to-end metric a value, as a clean run would.
func fillEndToEnd(r *run) {
	for _, d := range endToEnd {
		r.set(d.name, 1.5)
	}
}

// TestCorruptedOutputFailsTheRun hands each workload's check an output
// whose digest is that of corrupted bytes (or a merge that lost one
// outcome) and requires the corruption to raise failed_share and turn
// the run's result incorrect.
func TestCorruptedOutputFailsTheRun(t *testing.T) {
	good := sha256.Sum256([]byte(`{"schema":2,"reports":[]}`))
	bad := sha256.Sum256([]byte(`{"schema":2,"reports":[}`))

	tested := testedOut{envelope: good, verdicts: paperVerdicts, slots: 411, reports: 405, failures: 6}
	corruptTested := tested
	corruptTested.envelope = bad

	catalog := catalogOut{merged: 1182, attempted: 1182, hash: good}
	corruptCatalog := catalog
	corruptCatalog.hash = bad
	truncatedCatalog := catalog
	truncatedCatalog.merged = 1181

	refs := &daemonRefs{tested: good}
	corruptDaemon := daemonOut{kind: "tested", hash: bad}

	cases := map[string]func() []string{
		"tested envelope": func() []string { return checkTested(corruptTested, tested) },
		"catalog log":     func() []string { return checkCatalog(corruptCatalog, &catalog) },
		"catalog merge":   func() []string { return checkCatalog(truncatedCatalog, nil) },
		"daemon result":   func() []string { refs.check(&corruptDaemon); return corruptDaemon.problems },
	}
	for name, check := range cases {
		r := newTestRun(false)
		fillEndToEnd(r)
		r.attempt("clean campaign", nil)
		r.attempt(name, check())
		r.set("failed_share", float64(r.failed)/float64(r.attempted))
		res, _ := resultOf(r)
		if res.Correct || res.Failed != 1 || r.values["failed_share"] != 0.5 {
			t.Errorf("%s: correct=%v failed=%d failed_share=%v; want an incorrect run with failed_share 0.5",
				name, res.Correct, res.Failed, r.values["failed_share"])
		}
	}

	// The uncorrupted outputs pass.
	r := newTestRun(false)
	fillEndToEnd(r)
	r.attempt("tested", checkTested(tested, tested))
	r.attempt("catalog", checkCatalog(catalog, &catalog))
	clean := daemonOut{kind: "tested", hash: good}
	refs.check(&clean)
	r.attempt("daemon", clean.problems)
	if res, _ := resultOf(r); !res.Correct || res.Failed != 0 {
		t.Errorf("clean outputs: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

func TestUnexplainedMissingMetricFailsTheRun(t *testing.T) {
	r := newTestRun(false)
	fillEndToEnd(r)
	delete(r.values, "campaign_p50_s")
	r.attempt("campaign", nil)
	if res, _ := resultOf(r); res.Correct {
		t.Error("a metric missing without a reason must make the run incorrect")
	}
	r.setAbsent("campaign_p50_s", "no campaign completed")
	res, _ := resultOf(r)
	if !res.Correct || res.Metrics["campaign_p50_s"].Absent == "" {
		t.Errorf("an absent metric with a reason is reported, not failed: %+v", res)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the names and units this command
// prints in step with the benchmark definition at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: %s (%s) here, %s (%s) in BENCHMARK.json", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	compare("end_to_end", endToEnd, def.EndToEnd)
	compare("per_layer", perLayer, def.PerLayer)
	// BENCHMARK.json lists the steady workloads; daemon-mixed runs on
	// request and in every traced run.
	if len(def.Workloads) > len(workloads) {
		t.Fatalf("%d workloads here, %d in BENCHMARK.json", len(workloads), len(def.Workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s here, %s in BENCHMARK.json", i, workloads[i].name, w.Name)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "campaign", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "study.run", Start: 1, End: 6},
		{ID: 3, Parent: 1, Name: "results.save", Start: 5, End: 8}, // overlaps study.run by 1
		{ID: 4, Parent: 2, Name: "shardlog.append", Start: 2, End: 3},
		{ID: 5, Parent: 1, Name: "open", Start: 9, End: -1}, // never closed: ignored
	}
	self := selfTimes(spans)
	want := map[int]float64{1: 10 - 7, 2: 5 - 1, 3: 3, 4: 1}
	for id, v := range want {
		if !near(self[id], v) {
			t.Errorf("self(%d) = %v, want %v", id, self[id], v)
		}
	}
	if _, ok := self[5]; ok {
		t.Error("an open span has no self time")
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", "g", 0); id != 0 || nilTracer.durations("x") != nil {
		t.Error("a nil tracer must record nothing")
	}
}
