// Command perfbench is vpnscope's benchmark: it runs one named workload
// for a fixed time, checks every campaign's output, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of standard output. See README.md in this directory for the
// workloads, the metrics and the layer each one watches.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload tested-study --seed 2018 --seconds 40 --trace 0
//	bash perfbench/run.sh -spread RESULTS...
//
// run.sh builds this command and the vpnscoped daemon from the tree,
// keeping every build and run artifact under .bench_build/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything run.sh builds and every run writes, relative
// to the repository root, which is the working directory of a run.
const buildDir = ".bench_build"

// maxOverrun bounds how long a workload keeps trying, past its measured
// time, to complete the campaigns it needs when campaigns fail.
const maxOverrun = 60

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of vpnscope sees, reported by every
// untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"campaign_p50_s", "s"},
	{"slots_per_s", "1/s"},
	{"cpu_s_per_campaign", "s"},
	{"peak_rss_mb", "MB"},
	{"write_mb_per_campaign", "MB"},
}

// vpntestSpans maps each exported vpntest test to the metric suffix of
// its span, in the order RunSuite runs them.
var vpntestSpans = []string{
	"geolocation", "ping_sweep", "dns_manipulation", "recursive_origin",
	"proxy_detection", "dom_collection", "tls", "leak_tests", "traceroutes",
	"webrtc_leak", "p2p_detection", "tunnel_failure",
}

// perLayer are the metrics of single layers, reported by traced runs.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"failed_share", "1"},
		{"trace.overhead_share", "1"},
		{"study.build_s", "s"},
		{"study.run_s", "s"},
		{"study.worker_busy_share", "1"},
		{"study.slots", "count"},
		{"study.reports", "count"},
		{"study.connect_failures", "count"},
		{"study.recoveries", "count"},
		{"study.quarantined_vps", "count"},
		{"study.ttfo_p50_s", "s"},
		{"study.catalog_ttfo_p50_s", "s"},
		{"study.commit_gap_p50_s", "s"},
		{"study.commit_gap_max_s", "s"},
		{"netsim.client_stack_s", "s"},
		{"vpn.connect_s", "s"},
		{"vpn.disconnect_s", "s"},
	}
	for _, t := range vpntestSpans {
		defs = append(defs, metricDef{"vpntest." + t + "_s", "s"})
	}
	defs = append(defs, metricDef{"vpntest.suite_s", "s"})
	for _, l := range append(append([]string(nil), foldLayers...), "other", "runtime") {
		defs = append(defs, metricDef{"cpu_share." + l, "1"})
	}
	return append(defs,
		metricDef{"runtime.allocs_per_slot", "count"},
		metricDef{"runtime.alloc_kb_per_slot", "KiB"},
		metricDef{"runtime.gc_per_campaign", "count"},
		metricDef{"runtime.catalog_allocs_per_slot", "count"},
		metricDef{"runtime.catalog_alloc_kb_per_slot", "KiB"},
		metricDef{"runtime.catalog_gc_per_campaign", "count"},
		metricDef{"results.save_s", "s"},
		metricDef{"results.envelope_mb", "MB"},
		metricDef{"shardlog.append_p50_s", "s"},
		metricDef{"shardlog.append_p99_s", "s"},
		metricDef{"shardlog.append_total_s", "s"},
		metricDef{"shardlog.seal_s", "s"},
		metricDef{"shardlog.scan_s", "s"},
		metricDef{"analysis.verdicts_s", "s"},
		metricDef{"analysis.log_verdicts_s", "s"},
		metricDef{"ecosystem.catalog_specs_s", "s"},
		metricDef{"server.submit_s", "s"},
		metricDef{"server.queue_wait_p50_s", "s"},
		metricDef{"server.ttfo_p50_s", "s"},
		metricDef{"server.run_tested_p50_s", "s"},
		metricDef{"server.run_catalog_p50_s", "s"},
		metricDef{"server.result_fetch_s", "s"},
		metricDef{"server.rejected", "count"},
		metricDef{"server.e2e_tail_s", "s"},
		metricDef{"server.e2e_samples", "count"},
		metricDef{"server.write_mb_tested", "MB"},
		metricDef{"server.write_mb_catalog", "MB"},
		metricDef{"server.slot_wall_p99_s", "s"},
	)
}()

// workloads lists the benchmark's workloads in the order traced runs
// visit them. BENCHMARK.json names the first two: daemon-mixed runs on
// request and in every traced run, but its end-to-end figures spread
// too widely from run to run on a 2-vCPU host to gate changes (see
// README.md).
var workloads = []struct {
	name string
	run  func(r *run, seconds float64, primary bool)
}{
	{"tested-study", testedStudy},
	{"catalog-sweep", catalogSweep},
	{"daemon-mixed", daemonMixed},
}

type metricValue struct {
	Value  any    `json:"value"` // float64, or nil when absent
	Unit   string `json:"unit"`
	Absent string `json:"absent,omitempty"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run is one benchmark invocation's state.
type run struct {
	workload string
	seed     uint64
	trace    bool
	nproc    int
	work     string // scratch directory, emptied at start
	bin      string // directory holding the built vpnscoped
	tr       *tracer

	values    map[string]float64
	absent    map[string]string
	attempted int
	failed    int
}

// set records a metric value, keeping the first one set: on a traced
// run the primary workload reports first and owns the shared names.
func (r *run) set(name string, v float64) {
	if _, ok := r.values[name]; !ok {
		r.values[name] = v
	}
}

// setAbsent records why a metric could not be measured.
func (r *run) setAbsent(name, why string) {
	if _, ok := r.absent[name]; !ok {
		r.absent[name] = why
	}
}

// attempt counts one campaign; a non-empty problem list marks it
// failed and is printed to standard error.
func (r *run) attempt(what string, problems []string) {
	r.attempted++
	if len(problems) > 0 {
		r.failed++
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", what, p)
		}
	}
}

// fatal stops the run without a result line.
func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	workload := flag.String("workload", "tested-study", "workload to run: tested-study, catalog-sweep or daemon-mixed")
	seed := flag.Uint64("seed", paperSeed, "workload seed; every input is derived from it")
	seconds := flag.Float64("seconds", 10, "measured time of the run")
	trace := flag.Int("trace", 0, "1 runs the traced mode and reports per-layer metrics")
	spread := flag.Bool("spread", false, "summarise result files given as arguments instead of running")
	flag.Parse()

	if *spread {
		if err := printSpread(flag.Args()); err != nil {
			fatal("%v", err)
		}
		return
	}
	var runFn func(*run, float64, bool)
	for _, w := range workloads {
		if w.name == *workload {
			runFn = w.run
		}
	}
	if runFn == nil {
		fatal("unknown workload %q", *workload)
	}
	if *trace != 0 && *trace != 1 {
		fatal("--trace takes 0 or 1")
	}

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	r := &run{
		workload: *workload,
		seed:     *seed,
		trace:    *trace == 1,
		nproc:    nproc,
		work:     filepath.Join(buildDir, "work", *workload),
		bin:      filepath.Join(buildDir, "bin"),
		values:   map[string]float64{},
		absent:   map[string]string{},
	}
	if err := os.RemoveAll(r.work); err != nil {
		fatal("clearing %s: %v", r.work, err)
	}
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		fatal("%v", err)
	}
	host := stampHost(".")
	hostLine, _ := json.Marshal(map[string]any{"host": host, "workload": r.workload, "seed": r.seed,
		"seconds": *seconds, "trace": *trace})
	fmt.Println(string(hostLine))

	steal0, total0, stealErr := readCPUSteal()
	if !r.trace {
		runFn(r, *seconds, true)
	} else {
		r.tr = newTracer()
		// Every traced run reports every layer: the chosen workload runs
		// for the whole measured time, the others one traced pass each.
		runFn(r, *seconds, true)
		for _, w := range workloads {
			if w.name != r.workload {
				w.run(r, 0, false)
			}
		}
		tracePath := filepath.Join(r.work, fmt.Sprintf("trace-seed%d.ndjson", r.seed))
		if err := r.tr.write(tracePath); err != nil {
			fatal("writing trace: %v", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", tracePath)
	}
	// CPU steal is the host-load stamp: the share of this machine's CPU
	// time the hypervisor gave to other guests while the run measured.
	// Runs with high steal are slower for reasons outside the code.
	if steal1, total1, err := readCPUSteal(); err == nil && stealErr == nil && total1 > total0 {
		fmt.Printf("{\"cpu_steal_share\":%.4f}\n", float64(steal1-steal0)/float64(total1-total0))
	}
	if r.attempted > 0 {
		r.set("failed_share", float64(r.failed)/float64(r.attempted))
	}
	emit(r)
}

// emit prints the metric table and the result line, and exits non-zero
// when any campaign failed verification.
func emit(r *run) {
	res, table := resultOf(r)
	fmt.Print(table)
	line, err := json.Marshal(res)
	if err != nil {
		fatal("encoding result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// resultOf assembles the run's result and a human-readable table of
// it. A run is correct when it verified at least one campaign, none
// failed, and every metric was measured or has a reason to be absent.
func resultOf(r *run) (result, string) {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	res := result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{}}
	var table strings.Builder
	for _, d := range defs {
		v, ok := r.values[d.name]
		if ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
			res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
			fmt.Fprintf(&table, "%-34s %14.6g %s\n", d.name, v, d.unit)
			continue
		}
		why := r.absent[d.name]
		if why == "" {
			why = "not measured"
			res.Correct = false
		}
		res.Metrics[d.name] = metricValue{Unit: d.unit, Absent: why}
		fmt.Fprintf(&table, "%-34s %14s %s (%s)\n", d.name, "absent", d.unit, why)
	}
	if !r.trace {
		fmt.Fprintf(&table, "%-34s %14.6g %s\n", "failed_share", r.values["failed_share"], "1")
	}
	return res, table.String()
}

// since returns the seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// selfCPU returns this process's user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// wchar returns a process's written bytes so far (pid 0: self).
func wchar(pid int) float64 {
	n, err := readWChar(pid)
	if err != nil {
		return math.NaN()
	}
	return float64(n)
}

// peakRSSMB returns a process's peak resident set in MB (pid 0: self).
func peakRSSMB(pid int) float64 {
	kib, err := readPeakRSS(pid)
	if err != nil {
		return math.NaN()
	}
	return float64(kib) * 1024 / 1e6
}

// printSpread summarises result lines from files: for every metric of
// every workload, min, quartiles, max and the interquartile range as a
// share of the median, the spread the benchmark's bounds are set from.
func printSpread(files []string) error {
	values := map[string][]float64{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("%s: last line is not a result: %w", f, err)
		}
		if !res.Correct {
			return fmt.Errorf("%s: run was not correct", f)
		}
		for name, m := range res.Metrics {
			if v, ok := m.Value.(float64); ok {
				values[name] = append(values[name], v)
			}
		}
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-24s %4s %12s %12s %12s %12s %12s %8s\n", "metric", "n", "min", "q1", "median", "q3", "max", "iqr/med")
	for _, n := range names {
		v := values[n]
		q1, q2, q3, ok := quartiles(v)
		if !ok {
			continue
		}
		s := sorted(v)
		fmt.Printf("%-24s %4d %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f\n", n, len(v), s[0], q1, q2, q3, s[len(s)-1], (q3-q1)/q2)
	}
	return nil
}
