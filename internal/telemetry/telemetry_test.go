package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// The package-level sink is process-global state; tests in this file
// must leave it disabled.

func TestEnableDisableActive(t *testing.T) {
	Disable()
	if Active() != nil {
		t.Fatal("Active() non-nil before Enable")
	}
	s := Enable()
	defer Disable()
	if Active() != s {
		t.Fatal("Active() did not return the enabled sink")
	}
	Disable()
	if Active() != nil {
		t.Fatal("Active() non-nil after Disable")
	}
	// A replaced sink stays readable by its holder.
	s.M.Exchanges.Add(3)
	if got := s.M.Exchanges.Load(); got != 3 {
		t.Fatalf("disabled sink lost counts: %d", got)
	}
}

func TestHistogramBucketsAndSnapshot(t *testing.T) {
	var h Histogram
	h.Observe(500 * time.Microsecond) // <= 1ms bucket
	h.Observe(3 * time.Millisecond)   // <= 5ms
	h.Observe(3 * time.Millisecond)
	h.Observe(2 * time.Hour) // +Inf
	snap := h.Snapshot()
	if snap.Count != 4 {
		t.Fatalf("count = %d, want 4", snap.Count)
	}
	wantSum := float64(500*time.Microsecond+2*3*time.Millisecond+2*time.Hour) / float64(time.Millisecond)
	if snap.SumMs != wantSum {
		t.Fatalf("sum = %v ms, want %v", snap.SumMs, wantSum)
	}
	want := []BucketCount{{LeMs: 1, N: 1}, {LeMs: 5, N: 2}, {LeMs: -1, N: 1}}
	if len(snap.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", snap.Buckets, want)
	}
	for i, b := range want {
		if snap.Buckets[i] != b {
			t.Fatalf("bucket %d = %+v, want %+v", i, snap.Buckets[i], b)
		}
	}
}

func TestSpanRingWrapCountsDrops(t *testing.T) {
	s := Enable()
	defer Disable()
	s.EnsureWorkerTracks(1)
	for i := 0; i < ringCapacity+10; i++ {
		s.RecordSpan(0, Span{Kind: "slot", Slot: i})
	}
	spans, dropped := s.tracks[0].contents()
	if len(spans) != ringCapacity {
		t.Fatalf("retained %d spans, want %d", len(spans), ringCapacity)
	}
	if dropped != 10 {
		t.Fatalf("dropped = %d, want 10", dropped)
	}
	if spans[0].Slot != 10 || spans[len(spans)-1].Slot != ringCapacity+9 {
		t.Fatalf("ring kept wrong window: first=%d last=%d", spans[0].Slot, spans[len(spans)-1].Slot)
	}
	if got := s.Snapshot().Runtime.SpansDropped; got != 10 {
		t.Fatalf("snapshot spans_dropped = %d, want 10", got)
	}
}

func TestTraceEventFormat(t *testing.T) {
	s := Enable()
	defer Disable()
	s.EnsureWorkerTracks(2)
	s.RecordSpan(1, Span{
		Kind: "slot", Slot: 7, Provider: "NordVPN", VP: "us1.nordvpn.com (US)",
		WallStart: s.start.Add(5 * time.Millisecond), WallDur: 2 * time.Millisecond,
		VirtStart: time.Hour, VirtDur: 45 * time.Minute,
		Attempts: 2, Faults: 3, StolenFrom: 0, Outcome: "measured",
	})
	s.RecordCommitSpan(Span{Kind: "checkpoint", WallStart: s.start.Add(8 * time.Millisecond), WallDur: time.Millisecond})

	var buf bytes.Buffer
	if err := s.WriteTraceTo(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if tf.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", tf.DisplayTimeUnit)
	}
	var slotSeen, checkpointSeen, workerMeta, committerMeta bool
	for _, ev := range tf.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Args["name"] == "worker 1":
			workerMeta = true
		case ev.Ph == "M" && ev.Args["name"] == "committer":
			committerMeta = true
		case ev.Ph == "X" && ev.Name == "NordVPN · us1.nordvpn.com (US)":
			slotSeen = true
			if ev.Tid != 1 {
				t.Fatalf("slot span on tid %d, want 1", ev.Tid)
			}
			if ev.Ts != 5000 || ev.Dur != 2000 {
				t.Fatalf("span ts/dur = %v/%v µs, want 5000/2000", ev.Ts, ev.Dur)
			}
			if ev.Args["virtual_start_ms"] != float64(time.Hour/time.Millisecond) {
				t.Fatalf("virtual_start_ms = %v", ev.Args["virtual_start_ms"])
			}
			if ev.Args["stolen_from"] != float64(0) || ev.Args["attempts"] != float64(2) {
				t.Fatalf("span args wrong: %+v", ev.Args)
			}
		case ev.Ph == "X" && ev.Name == "checkpoint":
			checkpointSeen = true
			if ev.Tid != 2 {
				t.Fatalf("checkpoint span on tid %d, want 2 (after 2 worker tracks)", ev.Tid)
			}
		}
	}
	if !slotSeen || !checkpointSeen || !workerMeta || !committerMeta {
		t.Fatalf("missing events: slot=%v checkpoint=%v workerMeta=%v committerMeta=%v",
			slotSeen, checkpointSeen, workerMeta, committerMeta)
	}
}

func TestSnapshotSchemaAndSections(t *testing.T) {
	s := Enable()
	defer Disable()
	s.AddSlotsTotal(10)
	s.M.SlotsDone.Add(4)
	s.M.RawFault(FaultFlapped)
	s.M.AddCommittedFaults(1, 2, 3, 4, 5, 6)
	s.ObserveTest("geo", 2*time.Second)
	s.SuiteVirtual.Observe(40 * time.Minute)

	var buf bytes.Buffer
	if err := s.WriteMetricsTo(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("metrics snapshot is not valid JSON: %v", err)
	}
	if snap.Schema != SchemaVersion {
		t.Fatalf("schema = %q, want %q", snap.Schema, SchemaVersion)
	}
	if snap.Campaign.SlotsTotal != 10 || snap.Campaign.SlotsDone != 4 {
		t.Fatalf("campaign slots = %d/%d, want 4/10", snap.Campaign.SlotsDone, snap.Campaign.SlotsTotal)
	}
	if snap.Campaign.Faults != (FaultCounts{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("committed faults = %+v", snap.Campaign.Faults)
	}
	if snap.Runtime.FaultsRaw.Flapped != 1 {
		t.Fatalf("raw flapped = %d, want 1", snap.Runtime.FaultsRaw.Flapped)
	}
	if h, ok := snap.Campaign.TestVirtual["geo"]; !ok || h.Count != 1 {
		t.Fatalf("test_virtual_ms missing geo: %+v", snap.Campaign.TestVirtual)
	}
	if snap.Campaign.SuiteVirtual.Count != 1 {
		t.Fatalf("suite_virtual_ms count = %d", snap.Campaign.SuiteVirtual.Count)
	}
}

// The guarded record pattern used at every instrumentation site must
// cost zero allocations with telemetry disabled — the tentpole's
// "telemetry-off path stays zero-cost" contract.
func TestDisabledRecordPathAllocs(t *testing.T) {
	Disable()
	allocs := testing.AllocsPerRun(1000, func() {
		if s := Active(); s != nil {
			s.M.Exchanges.Add(1)
			s.SlotWall.Observe(time.Millisecond)
			s.RecordSpan(0, Span{Kind: "slot"})
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled record path allocates %.1f objects per op, want 0", allocs)
	}
}

// With a sink enabled, the hot record paths (counters, histograms,
// spans on a preallocated track, per-test observe of a known name) must
// also be allocation-free.
func TestEnabledRecordPathAllocs(t *testing.T) {
	s := Enable()
	defer Disable()
	s.EnsureWorkerTracks(1)
	s.ObserveTest("geo", time.Millisecond) // allocate the histogram once
	sp := Span{Kind: "slot", Slot: 1, Provider: "p", VP: "vp"}
	allocs := testing.AllocsPerRun(1000, func() {
		s.M.Exchanges.Add(1)
		s.M.RawFault(FaultDropped)
		s.SlotWall.Observe(time.Millisecond)
		s.ObserveTest("geo", time.Millisecond)
		s.RecordSpan(0, sp)
	})
	if allocs != 0 {
		t.Fatalf("enabled record path allocates %.1f objects per op, want 0", allocs)
	}
}

// Hammer every concurrent surface at once; run under -race (tier-1
// does) to prove the sink is data-race free.
func TestConcurrentRecordingAndSnapshot(t *testing.T) {
	s := Enable()
	defer Disable()
	const workers = 8
	s.EnsureWorkerTracks(workers)
	s.AddSlotsTotal(1000)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.M.Exchanges.Add(1)
				s.M.RawFault(FaultKind(i % int(NumFaultKinds)))
				s.SlotWall.Observe(time.Duration(i) * time.Millisecond)
				s.ObserveTest("ping", time.Millisecond)
				s.RecordSpan(id, Span{Kind: "slot", Slot: i})
				if i%100 == 0 {
					s.RecordCommitSpan(Span{Kind: "checkpoint"})
				}
			}
		}(w)
	}
	// Concurrent readers: snapshots, trace export, progress.
	stop := s.StartProgress(new(bytes.Buffer), time.Millisecond)
	for i := 0; i < 10; i++ {
		_ = s.Snapshot()
		_ = s.WriteTraceTo(new(bytes.Buffer))
	}
	wg.Wait()
	stop()

	snap := s.Snapshot()
	if want := int64(workers * 500); snap.Runtime.Exchanges != want {
		t.Fatalf("exchanges = %d, want %d", snap.Runtime.Exchanges, want)
	}
	if snap.Wall.SlotWall.Count != int64(workers*500) {
		t.Fatalf("slot wall count = %d", snap.Wall.SlotWall.Count)
	}
}

func TestProgressLine(t *testing.T) {
	s := Enable()
	defer Disable()
	s.AddSlotsTotal(8)
	s.M.SlotsDone.Add(2)
	s.M.QuarantineTrips.Add(1)
	var buf bytes.Buffer
	stop := s.StartProgress(&buf, time.Hour) // only the final line fires
	stop()
	stop() // idempotent
	line := buf.String()
	if !strings.Contains(line, "2/8 slots") || !strings.Contains(line, "1 quarantined") {
		t.Fatalf("progress line = %q", line)
	}
	if strings.Count(line, "\n") != 1 {
		t.Fatalf("stop() not idempotent, got %q", line)
	}
}
