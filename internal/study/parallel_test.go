// Parallel-executor validation: any RunConfig.Parallel value must
// serialize byte-identically to a sequential run — under faults, under
// quarantine, across kill/resume at every vantage-point boundary, and
// for the full 62-provider campaign — with the headline verdicts
// intact. These tests are the acceptance criteria of the shard/merge
// execution model (DESIGN.md, "Parallel execution").
package study_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"vpnscope/internal/analysis"
	"vpnscope/internal/faultsim"
	"vpnscope/internal/results"
	"vpnscope/internal/study"
)

// envelope serializes a result the way the CLIs do, the byte-identity
// comparison currency of these tests.
func envelope(t *testing.T, res *study.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := results.Save(&buf, res, results.WithSeed(2018), results.WithFaultProfile("lossy")); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Pinned envelope digests, measured on go1.24.0 linux/amd64. They tie
// the byte-identity suites to a fixed reference instead of only to each
// other: a change that altered sequential and parallel output alike
// would pass seq ≡ par but not these.
const (
	// subsetLossyDigest is the 3-provider lossy campaign of
	// TestParallelByteIdenticalSubset.
	subsetLossyDigest = "5b0757aa4304e0a5e37c01da02f9c9b138552138b0c72b8e3b9e89e7d0ca42a9"
	subsetLossyLen    = 193819
	// fullLossyDigest is the full 62-provider lossy campaign of
	// TestParallelGoldenFullStudy.
	fullLossyDigest = "ba88fc21342ff2fe6b4ea0a09a8645001141e9fc1826ae09503eac4ca595036f"
	fullLossyLen    = 4779907
)

// checkDigest fails t unless env has the pinned length and sha256.
func checkDigest(t *testing.T, name string, env []byte, wantDigest string, wantLen int) {
	t.Helper()
	sum := sha256.Sum256(env)
	if got := hex.EncodeToString(sum[:]); got != wantDigest || len(env) != wantLen {
		t.Errorf("%s envelope = sha256 %s, %d bytes; want %s, %d bytes",
			name, got, len(env), wantDigest, wantLen)
	}
}

// TestParallelByteIdenticalSubset is the fast (-short, race-checked)
// form of the golden test: a 3-provider lossy campaign run with eight
// workers serializes byte-identically to the sequential run.
func TestParallelByteIdenticalSubset(t *testing.T) {
	build := func() *study.World {
		w := buildSubset(t, 2018, "Seed4.me", "WorldVPN", "Windscribe")
		w.EnableFaults(faultsim.Lossy)
		return w
	}
	seq, err := build().RunWith(study.RunConfig{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := build().RunWith(study.RunConfig{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Reports) == 0 || par.VPsAttempted != seq.VPsAttempted {
		t.Fatalf("parallel run attempted %d vantage points, sequential %d", par.VPsAttempted, seq.VPsAttempted)
	}
	seqEnv := envelope(t, seq)
	if !bytes.Equal(seqEnv, envelope(t, par)) {
		t.Error("Parallel=8 envelope differs from Parallel=1")
	}
	checkDigest(t, "subset lossy", seqEnv, subsetLossyDigest, subsetLossyLen)
}

// TestParallelQuarantineByteIdentical: the circuit breaker — whose
// streak state is inherently sequential within a provider — still
// produces identical records when providers run as concurrent shards.
// All endpoints are dead via a fault profile (not post-Build world
// mutation, which shard clones cannot see), so every provider trips.
func TestParallelQuarantineByteIdentical(t *testing.T) {
	dead := faultsim.Profile{Name: "dead", ConnectRefusalRate: 1}
	build := func() *study.World {
		w := buildSubset(t, 2018, "Seed4.me", "WorldVPN", "Windscribe")
		w.EnableFaults(dead)
		return w
	}
	cfg := study.RunConfig{QuarantineAfter: 2}
	cfg.Parallel = 1
	seq, err := build().RunWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallel = 8
	par, err := build().RunWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Quarantines) != 3 {
		t.Errorf("quarantines = %d, want all 3 dead providers tripped", len(par.Quarantines))
	}
	if d := silentDrops(par); d != 0 {
		t.Errorf("%d vantage points silently dropped", d)
	}
	if !bytes.Equal(envelope(t, seq), envelope(t, par)) {
		t.Error("quarantine-heavy Parallel=8 envelope differs from Parallel=1")
	}
}

// TestParallelGoldenFullStudy is the tentpole acceptance test: the full
// 62-provider campaign under the lossy profile, Parallel=8 versus
// Parallel=1, byte-identical envelopes, identical fault-injection
// totals (shard counters absorbed into the campaign plan), and every §6
// headline verdict intact on the parallel run's reports.
func TestParallelGoldenFullStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden study in -short mode")
	}
	seqW, err := study.Build(study.Options{Seed: 2018})
	if err != nil {
		t.Fatal(err)
	}
	seqPlan := seqW.EnableFaults(faultsim.Lossy)
	seq, err := seqW.RunWith(study.RunConfig{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}

	parW, err := study.Build(study.Options{Seed: 2018})
	if err != nil {
		t.Fatal(err)
	}
	parPlan := parW.EnableFaults(faultsim.Lossy)
	par, err := parW.RunWith(study.RunConfig{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}

	seqEnv := envelope(t, seq)
	if !bytes.Equal(seqEnv, envelope(t, par)) {
		t.Error("full-study Parallel=8 envelope differs from Parallel=1")
	}
	checkDigest(t, "full-study lossy", seqEnv, fullLossyDigest, fullLossyLen)
	// The shards' fault counters, absorbed on worker exit, must equal
	// the sequential plan's: every draw happens inside some vantage
	// point's boundary-reset stream, so the totals are execution-order
	// independent too.
	if sp, pp := seqPlan.Stats(), parPlan.Stats(); sp != pp {
		t.Errorf("fault stats diverged: sequential %+v, parallel %+v", sp, pp)
	}
	if parPlan.Stats().Total() == 0 {
		t.Error("parallel campaign absorbed no fault stats")
	}
	if d := silentDrops(par); d != 0 {
		t.Errorf("%d vantage points silently dropped", d)
	}

	// Headline verdicts from the parallel run's reports.
	inj := analysis.Injections(analysis.Slice(par.Reports))
	if len(inj) != 1 || inj[0].Provider != "Seed4.me" {
		t.Errorf("injections = %+v, want exactly Seed4.me", inj)
	}
	if proxies := analysis.TransparentProxies(analysis.Slice(par.Reports)); len(proxies) != 5 {
		t.Errorf("transparent proxies = %v, want 5", proxies)
	}
	if vv := analysis.DetectVirtualVPs(analysis.Slice(par.Reports), parW.Config); len(vv.Providers) != 6 {
		t.Errorf("virtual-VP providers = %v, want the paper's six", vv.Providers)
	}
	leaks := analysis.Leaks(analysis.Slice(par.Reports))
	if len(leaks.DNSLeakers) != 2 {
		t.Errorf("DNS leakers = %v, want 2", leaks.DNSLeakers)
	}
	if len(leaks.IPv6Leakers) != 12 {
		t.Errorf("IPv6 leakers = %v, want 12", leaks.IPv6Leakers)
	}
	if rate := leaks.FailOpenRate(); leaks.Applicable != 43 || rate < 0.5 || rate > 0.65 {
		t.Errorf("fail-open %d/%d = %.0f%%, want 25/43 = 58%%",
			len(leaks.FailOpen), leaks.Applicable, 100*rate)
	}
}

// TestParallelKillResumeFuzz kills a 5-provider lossy campaign at every
// vantage-point boundary and resumes the checkpoint under both
// Parallel=1 and Parallel=8; every resumed envelope must equal the
// uninterrupted reference byte for byte. The kill itself alternates
// between sequential and parallel execution, so mid-parallel
// checkpoints — which are not slot-order prefixes — are resumed by both
// paths too.
func TestParallelKillResumeFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("kill/resume fuzz in -short mode")
	}
	providers := []string{"Seed4.me", "WorldVPN", "Windscribe", "Mullvad", "NordVPN"}
	build := func() *study.World {
		w := buildSubset(t, 2018, providers...)
		w.EnableFaults(faultsim.Lossy)
		return w
	}

	ref, err := build().RunWith(study.RunConfig{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d := silentDrops(ref); d != 0 {
		t.Fatalf("%d vantage points silently dropped in reference run", d)
	}
	refBytes := envelope(t, ref)
	total := ref.VPsAttempted

	killed := errors.New("killed")
	dir := t.TempDir()
	for k := 1; k <= total; k++ {
		killPar := 1
		if k%2 == 0 {
			killPar = 8
		}
		path := filepath.Join(dir, fmt.Sprintf("ckpt-%d.json", k))
		ck := results.CheckpointFunc(path, results.WithSeed(2018), results.WithFaultProfile("lossy"))
		var mu sync.Mutex
		count := 0
		_, err := build().RunWith(study.RunConfig{
			Parallel: killPar,
			Checkpoint: func(r *study.Result) error {
				mu.Lock()
				defer mu.Unlock()
				if count >= k {
					// Concurrent shards may checkpoint again after the
					// kill; keep the file frozen at k outcomes.
					return killed
				}
				if err := ck(r); err != nil {
					return err
				}
				count++
				if count == k {
					return killed
				}
				return nil
			},
		})
		if !errors.Is(err, killed) {
			t.Fatalf("k=%d: interrupted run error = %v", k, err)
		}

		partial, env, err := results.LoadFile(path)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if env.Complete {
			t.Fatalf("k=%d: checkpoint marked complete", k)
		}
		for _, resumePar := range []int{1, 8} {
			resumed, err := build().RunWith(study.RunConfig{Resume: partial, Parallel: resumePar})
			if err != nil {
				t.Fatalf("k=%d resume Parallel=%d: %v", k, resumePar, err)
			}
			if !bytes.Equal(refBytes, envelope(t, resumed)) {
				t.Errorf("k=%d (killed under Parallel=%d, resumed under Parallel=%d): envelope differs from reference",
					k, killPar, resumePar)
			}
		}
	}
}
