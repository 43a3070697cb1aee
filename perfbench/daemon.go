package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"vpnscope/internal/ecosystem"
	"vpnscope/internal/server"
)

// daemonCatalog is the catalog size of the daemon's catalog-mode spec:
// the first entries of the 200-provider catalog, sized so a campaign
// takes about as long as the tested-mode one and neither kind dominates
// the mix.
const daemonCatalog = 60

// daemonTested is the provider subset of the daemon's tested-mode spec:
// every third of the paper's 62 (21 providers, about 106 slots). The
// tested-mode checkpoint rewrites the whole result after every outcome,
// so its cost grows with the square of the slot count; the full study
// would take about 14s and write about 1GB per campaign in the daemon,
// leaving too few campaigns per run for a steady median.
func daemonTested() []string {
	var names []string
	for i, n := range ecosystem.TestedNames() {
		if i%3 == 0 {
			names = append(names, n)
		}
	}
	return names
}

// daemonSetupReps is how many daemon cold starts a run times.
const daemonSetupReps = 9

// daemonSpec returns the spec a client submits. Both kinds ask for the
// whole fleet, so with two clients one campaign always queues behind
// the other.
func daemonSpec(r *run, kind, tenant string) server.CampaignSpec {
	spec := server.CampaignSpec{Seed: r.seed, Workers: r.nproc, Tenant: tenant}
	if kind == "tested" {
		spec.FaultProfile = "lossy"
		spec.Providers = daemonTested()
	} else {
		spec.Catalog = daemonCatalog
	}
	return spec
}

// daemonProc is a running vpnscoped subprocess.
type daemonProc struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan struct{} // closed once stderr is drained
}

// startDaemon execs vpnscoped on a fresh state directory and returns
// once /readyz answers 200, with the seconds that took.
func startDaemon(r *run, state string) (*daemonProc, float64, error) {
	logf, err := os.Create(state + ".log")
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	cmd := exec.Command(filepath.Join(r.bin, "vpnscoped"), "-state", state, "-addr", "127.0.0.1:0",
		"-fleet", strconv.Itoa(r.nproc), "-queue", "16")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(r.nproc))
	// Should the benchmark die without stopping it, the daemon dies too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting vpnscoped: %w", err)
	}
	d := &daemonProc{cmd: cmd, log: logf, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addrc <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrc:
		d.base = "http://" + addr
	case <-d.done:
		d.stop()
		return nil, 0, fmt.Errorf("vpnscoped exited before listening (log %s)", logf.Name())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, 0, fmt.Errorf("vpnscoped did not listen within 30s")
	}
	for {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, since(t0), nil
			}
		}
		if since(t0) > 30 {
			d.stop()
			return nil, 0, fmt.Errorf("vpnscoped not ready within 30s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit,
// killing it if the drain overruns.
func (d *daemonProc) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() { <-d.done; exited <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		err = fmt.Errorf("vpnscoped did not drain within 20s: %v", <-exited)
	}
	d.log.Close()
	return err
}

func (d *daemonProc) pid() int { return d.cmd.Process.Pid }

// daemonOut is one campaign as a client saw it.
type daemonOut struct {
	kind                                    string
	t0, accepted, started, first, done, end time.Time
	submitS, fetchS                         float64
	slots                                   int
	rejected                                int
	wcharRun                                float64 // daemon bytes written between started and done
	slotWallP99                             float64
	hash                                    [32]byte
	problems                                []string
}

// daemonClient is one closed-loop batch tenant: one keep-alive
// connection, one request at a time.
type daemonClient struct {
	r      *run
	d      *daemonProc
	id     int
	http   *http.Client
	tenant string
}

func newDaemonClient(r *run, d *daemonProc, id int) *daemonClient {
	return &daemonClient{r: r, d: d, id: id, tenant: fmt.Sprintf("client-%d", id),
		http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}}
}

// campaign submits one spec, follows its event stream to the end and
// fetches its result. tr is nil for an untraced campaign.
func (c *daemonClient) campaign(kind string, tr *tracer, group string) daemonOut {
	out := daemonOut{kind: kind, slotWallP99: math.NaN()}
	body, _ := json.Marshal(daemonSpec(c.r, kind, c.tenant))
	out.t0 = time.Now()
	root := tr.begin("daemon.campaign."+kind, group, 0)
	defer tr.end(root)

	var id string
	for {
		sp := tr.begin("http.submit", group, root)
		resp, err := c.http.Post(c.d.base+"/campaigns", "application/json", bytes.NewReader(body))
		tr.end(sp)
		if err != nil {
			out.problems = append(out.problems, fmt.Sprintf("submit: %v", err))
			return out
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			// Refused: honour Retry-After, and count the refusal.
			out.rejected++
			secs, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			time.Sleep(time.Duration(max(secs, 1)) * time.Second)
			continue
		}
		var acc struct{ ID string }
		if resp.StatusCode != http.StatusAccepted || json.Unmarshal(raw, &acc) != nil || acc.ID == "" {
			out.problems = append(out.problems, fmt.Sprintf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw)))
			return out
		}
		id = acc.ID
		break
	}
	out.accepted = time.Now()
	out.submitS = out.accepted.Sub(out.t0).Seconds()

	sp := tr.begin("http.events", group, root)
	final := c.follow(id, &out, tr)
	tr.end(sp)
	if tr != nil && !out.started.IsZero() {
		tr.add("server.queue_wait", group, root, out.accepted, out.started)
		if !out.done.IsZero() {
			tr.add("server.run_"+kind, group, root, out.started, out.done)
		}
	}
	if final != "done" {
		out.problems = append(out.problems, fmt.Sprintf("campaign %s ended %q", id, final))
		return out
	}
	if tr != nil {
		out.slotWallP99 = c.scrapeSlotWallP99(id)
	}

	fetchStart := time.Now()
	path := "/result"
	if kind == "catalog" {
		path = "/outcomes"
	}
	sp = tr.begin("http.fetch", group, root)
	resp, err := c.http.Get(c.d.base + "/campaigns/" + id + path)
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("HTTP %d", resp.StatusCode)
		}
	}
	tr.end(sp)
	out.end = time.Now()
	out.fetchS = out.end.Sub(fetchStart).Seconds()
	if err != nil {
		out.problems = append(out.problems, fmt.Sprintf("fetching %s: %v", path, err))
		return out
	}
	out.hash = sha256.Sum256(raw)
	if kind == "catalog" {
		if n := bytes.Count(raw, []byte("\n")); n != out.slots {
			out.problems = append(out.problems, fmt.Sprintf("outcomes hold %d lines, campaign committed %d slots", n, out.slots))
		}
	}
	return out
}

// follow reads the campaign's NDJSON event stream until it ends,
// stamping each transition on arrival, and returns the last state.
func (c *daemonClient) follow(id string, out *daemonOut, tr *tracer) string {
	resp, err := c.http.Get(c.d.base + "/campaigns/" + id + "/events")
	if err != nil {
		return "events: " + err.Error()
	}
	defer resp.Body.Close()
	final := ""
	dec := json.NewDecoder(resp.Body)
	for {
		var ev server.Event
		if err := dec.Decode(&ev); err != nil {
			if err != io.EOF {
				return "events: " + err.Error()
			}
			return final
		}
		now := time.Now()
		switch ev.Type {
		case "started":
			out.started = now
			if tr != nil {
				out.wcharRun = -wchar(c.d.pid())
			}
		case "progress":
			if out.first.IsZero() {
				out.first = now
			}
			out.slots = ev.SlotsDone
		case "done":
			out.done = now
			if tr != nil {
				out.wcharRun += wchar(c.d.pid())
			}
		}
		if ev.Type != "progress" {
			final = ev.Type
		}
	}
}

// scrapeSlotWallP99 reads the campaign's slot-wall p99 from its
// Prometheus exposition; NaN when the daemon does not expose it.
func (c *daemonClient) scrapeSlotWallP99(id string) float64 {
	resp, err := c.http.Get(c.d.base + "/campaigns/" + id + "/metricsz?format=prom")
	if err != nil {
		return math.NaN()
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	v := math.NaN()
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "vpnscoped_campaign_slot_wall_p99_seconds{"); ok {
			fields := strings.Fields(rest)
			if f, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
				v = f
			}
		}
	}
	return v
}

// daemonRefs are the results every campaign of a kind must reproduce.
type daemonRefs struct {
	mu      sync.Mutex
	tested  [32]byte // computed in process before the daemon starts
	catalog *[32]byte
}

// record checks a campaign and counts it in the run; clients call it
// concurrently. It reports whether the campaign passed.
func (refs *daemonRefs) record(r *run, out *daemonOut, what string) bool {
	refs.mu.Lock()
	defer refs.mu.Unlock()
	refs.check(out)
	r.attempt(what, out.problems)
	return len(out.problems) == 0
}

// check adds a problem to out if its result differs from the reference
// of its kind. The caller holds refs.mu.
func (refs *daemonRefs) check(out *daemonOut) {
	if len(out.problems) > 0 {
		return
	}
	switch {
	case out.kind == "tested" && out.hash != refs.tested:
		out.problems = append(out.problems, fmt.Sprintf("result sha256 %x differs from the one-shot envelope %x", out.hash[:8], refs.tested[:8]))
	case out.kind == "catalog" && refs.catalog == nil:
		h := out.hash
		refs.catalog = &h
	case out.kind == "catalog" && out.hash != *refs.catalog:
		out.problems = append(out.problems, fmt.Sprintf("outcomes sha256 %x differ from the first catalog campaign's %x", out.hash[:8], refs.catalog[:8]))
	}
}

// daemonMixed is the service workload: a vpnscoped subprocess with a
// fleet of nproc workers and a closed loop of nproc clients, each
// alternating a tested-mode spec (the monolithic checkpoint path) and a
// catalog-mode spec (the shard-log path).
func daemonMixed(r *run, seconds float64, primary bool) {
	refSpec := daemonSpec(r, "tested", "")
	res, err := server.RunOneShot(context.Background(), refSpec)
	if err != nil {
		fatal("daemon-mixed one-shot reference: %v", err)
	}
	env, err := server.EnvelopeBytes(refSpec, res)
	if err != nil {
		fatal("daemon-mixed one-shot reference: %v", err)
	}
	refs := &daemonRefs{tested: sha256.Sum256(env)}

	var d *daemonProc
	var setups []float64
	for i := 0; i < daemonSetupReps; i++ {
		state := filepath.Join(r.work, fmt.Sprintf("state-%d", i))
		if err := os.MkdirAll(state, 0o755); err != nil {
			fatal("%v", err)
		}
		proc, dt, err := startDaemon(r, state)
		if err != nil {
			fatal("daemon-mixed setup: %v", err)
		}
		setups = append(setups, dt)
		if i < daemonSetupReps-1 {
			if err := proc.stop(); err != nil {
				fatal("daemon-mixed setup: stopping vpnscoped: %v", err)
			}
			continue
		}
		d = proc
	}
	r.set("setup_s", median(setups))
	defer func() {
		if err := d.stop(); err != nil {
			r.attempt("daemon-mixed shutdown", []string{err.Error()})
		}
	}()

	clients := make([]*daemonClient, r.nproc)
	for i := range clients {
		clients[i] = newDaemonClient(r, d, i)
	}
	kinds := []string{"tested", "catalog"}

	// Warm-up, unmeasured: each client runs one pair of campaigns, which
	// fills the daemon's caches, grows its heap to its working size and
	// fixes the catalog reference. (The first campaigns of a fresh
	// daemon run several percent slower than later ones.)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *daemonClient) {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				out := c.campaign(kinds[(c.id+i)%2], nil, "")
				refs.record(r, &out, fmt.Sprintf("daemon-mixed warm-up client %d campaign %d", c.id, i))
			}
		}(c)
	}
	wg.Wait()

	var mu sync.Mutex
	var plain, traced []daemonOut
	start := time.Now()
	cpu0, _ := readProcCPU(d.pid())
	w0 := wchar(d.pid())
	for _, c := range clients {
		wg.Add(1)
		go func(c *daemonClient) {
			defer wg.Done()
			for i := 0; ; i++ {
				// A client stops only after whole pairs, so every run
				// measures as many tested-mode as catalog-mode campaigns.
				enough := i >= 2 && i%2 == 0 || !primary && i >= 1
				if since(start) >= seconds && enough || since(start) >= seconds+maxOverrun {
					return
				}
				var tr *tracer
				if r.trace && (i%2 == 1 || !primary) {
					tr = r.tr
				}
				kind := kinds[(c.id+i)%2]
				out := c.campaign(kind, tr, fmt.Sprintf("client-%d-%d", c.id, i))
				if !refs.record(r, &out, fmt.Sprintf("daemon-mixed client %d campaign %d (%s)", c.id, i, kind)) {
					continue
				}
				mu.Lock()
				if tr != nil {
					traced = append(traced, out)
				} else {
					plain = append(plain, out)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	wall := since(start)
	cpu1, _ := readProcCPU(d.pid())
	all := append(append([]daemonOut(nil), plain...), traced...)
	n := float64(len(all))
	if n == 0 {
		return
	}
	ofKind := func(outs []daemonOut, kind string) []daemonOut {
		var v []daemonOut
		for _, o := range outs {
			if o.kind == kind {
				v = append(v, o)
			}
		}
		return v
	}
	e2e := func(o daemonOut) float64 { return o.end.Sub(o.t0).Seconds() }
	if primary && len(plain) > 0 {
		r.set("campaign_p50_s", median(pick(plain, e2e)))
		r.set("slots_per_s", sum(pick(all, func(o daemonOut) float64 { return float64(o.slots) }))/wall)
		r.set("cpu_s_per_campaign", (cpu1-cpu0)/n)
		r.set("write_mb_per_campaign", (wchar(d.pid())-w0)/1e6/n)
		r.set("peak_rss_mb", peakRSSMB(d.pid()))
	}
	if !r.trace || len(traced) == 0 {
		return
	}
	if primary && len(plain) > 0 {
		r.set("trace.overhead_share", median(pick(traced, e2e))/median(pick(plain, e2e))-1)
	}
	r.set("server.submit_s", median(pick(traced, func(o daemonOut) float64 { return o.submitS })))
	r.set("server.ttfo_p50_s", median(pick(all, func(o daemonOut) float64 { return o.first.Sub(o.t0).Seconds() })))
	r.set("server.queue_wait_p50_s", median(pick(traced, func(o daemonOut) float64 { return o.started.Sub(o.accepted).Seconds() })))
	r.set("server.run_tested_p50_s", median(pick(ofKind(traced, "tested"), func(o daemonOut) float64 { return o.done.Sub(o.started).Seconds() })))
	r.set("server.run_catalog_p50_s", median(pick(ofKind(traced, "catalog"), func(o daemonOut) float64 { return o.done.Sub(o.started).Seconds() })))
	r.set("server.result_fetch_s", median(pick(traced, func(o daemonOut) float64 { return o.fetchS })))
	r.set("server.rejected", sum(pick(all, func(o daemonOut) float64 { return float64(o.rejected) })))
	e2es := pick(all, e2e)
	r.set("server.e2e_tail_s", percentile(e2es, tailQuantile(len(e2es))))
	r.set("server.e2e_samples", float64(len(e2es)))
	r.set("server.write_mb_tested", median(pick(ofKind(traced, "tested"), func(o daemonOut) float64 { return o.wcharRun / 1e6 })))
	r.set("server.write_mb_catalog", median(pick(ofKind(traced, "catalog"), func(o daemonOut) float64 { return o.wcharRun / 1e6 })))
	var p99 []float64
	for _, v := range pick(traced, func(o daemonOut) float64 { return o.slotWallP99 }) {
		if !math.IsNaN(v) {
			p99 = append(p99, v)
		}
	}
	if v := median(p99); math.IsNaN(v) {
		r.setAbsent("server.slot_wall_p99_s", "vpnscoped exposes no vpnscoped_campaign_slot_wall_p99_seconds")
	} else {
		r.set("server.slot_wall_p99_s", v)
	}
}
