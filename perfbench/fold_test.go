package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestFoldChargesInnermostRepoFrame(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "traces.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	totals, samples, err := foldTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	ms := int64(time.Millisecond)
	want := map[string]int64{
		"netsim":  30 * ms,   // memmove under netsim: charged to netsim
		"capture": 20 * ms,   // inline frame marker stripped
		"results": 1500 * ms, // results/shardlog folds onto results; label line skipped
		"other":   10 * ms,   // simrand is not a reported layer
		"runtime": 50 * ms,   // GC worker and benchmark-only stacks
	}
	if samples != 6 {
		t.Errorf("samples = %d, want 6", samples)
	}
	if len(totals) != len(want) {
		t.Errorf("totals = %v, want %v", totals, want)
	}
	for k, v := range want {
		if totals[k] != v {
			t.Errorf("%s = %v, want %v", k, time.Duration(totals[k]), time.Duration(v))
		}
	}
}

func TestFoldRejectsMalformedTraces(t *testing.T) {
	sep := "-----------+-------------------------------------------------------\n"
	for name, in := range map[string]string{
		"no unit":     sep + "        30   runtime.memmove\n",
		"frame first": sep + "             runtime.memmove\n",
		"two values":  sep + "      10ms   a.f\n      10ms   b.g\n",
		"bad number":  sep + "      1x2s   a.f\n",
	} {
		if _, _, err := foldTraces(strings.NewReader(in)); err == nil {
			t.Errorf("%s: want an error", name)
		}
	}
}

func TestRepoModule(t *testing.T) {
	cases := map[string]string{
		"vpnscope/internal/netsim.(*Network).deliver":      "netsim",
		"vpnscope/internal/study/slotsched.(*Sched).Steal": "study",
		"vpnscope/internal/arena.Alloc[...]":               "arena",
		"vpnscope/internal/psl.Lookup":                     "other",
	}
	for fn, want := range cases {
		if got, ok := repoModule(fn); !ok || got != want {
			t.Errorf("repoModule(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	if _, ok := repoModule("runtime.mallocgc"); ok {
		t.Error("a runtime frame is not a repo frame")
	}
}

// TestFoldProfilesCoversEverySample profiles a busy loop of this test
// binary and folds it through `go tool pprof`: with no repo frame in
// the stacks, every sample lands on runtime and the shares sum to 1.
func TestFoldProfilesCoversEverySample(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	x := uint64(1)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	pprof.StopCPUProfile()
	f.Close()
	shares, samples, err := foldProfiles([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if samples == 0 || math.Abs(total-1) > 1e-9 || shares["runtime"] != 1 {
		t.Fatalf("samples %d, shares %v (sum %v); want every sample on runtime (x=%d)", samples, shares, total, x)
	}
}
