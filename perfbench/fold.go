package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// repoPrefix marks a frame of the program under test.
const repoPrefix = "vpnscope/internal/"

// foldLayers are the modules the CPU split is reported for. A sample
// whose innermost repo frame is in another internal module is charged
// to "other"; one with no repo frame at all (GC, scheduler, the
// benchmark's own code) to "runtime".
var foldLayers = []string{
	"netsim", "capture", "websim", "vpn", "dnssim", "tlssim", "vpntest",
	"faultsim", "geodb", "study", "arena", "results", "analysis",
}

// foldTraces reads `go tool pprof -traces` output and charges each
// sample's value to the module of its innermost vpnscope/internal frame.
// It returns the per-module totals in nanoseconds and the sample count.
//
// The format is a header, then one block per sample, each opened by a
// line of dashes: optional label lines ("%10s:  %s"), then the stack,
// innermost frame first, as "%10s   %s" lines whose first column holds
// the sample value on the first frame only.
func foldTraces(r io.Reader) (map[string]int64, int, error) {
	totals := map[string]int64{}
	samples := 0
	inBlock, haveFrame := false, false
	var value int64
	charged := true
	flush := func() {
		if haveFrame && !charged {
			totals["runtime"] += value
			charged = true
		}
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock, haveFrame = true, false
			continue
		}
		if !inBlock || len(line) < 13 || line[10:13] != "   " {
			continue // header or label line
		}
		name := strings.TrimSuffix(strings.TrimSpace(line[13:]), " (inline)")
		if col := strings.TrimSpace(line[:10]); col != "" {
			if haveFrame {
				return nil, 0, fmt.Errorf("fold: second sample value %q in one block", col)
			}
			v, err := parseSampleValue(col)
			if err != nil {
				return nil, 0, err
			}
			value, haveFrame, charged = v, true, false
			samples++
		} else if !haveFrame {
			return nil, 0, fmt.Errorf("fold: frame %q before any sample value", name)
		}
		if !charged {
			if mod, ok := repoModule(name); ok {
				totals[mod] += value
				charged = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	flush()
	return totals, samples, nil
}

// repoModule maps a frame's function name to its module: the first
// path element under vpnscope/internal ("results/shardlog" → "results"),
// or "other" for a module outside foldLayers.
func repoModule(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return "", false
	}
	end := strings.IndexAny(rest, "/.")
	if end < 0 {
		return "", false
	}
	mod := rest[:end]
	for _, l := range foldLayers {
		if l == mod {
			return mod, true
		}
	}
	return "other", true
}

// parseSampleValue parses a pprof-scaled CPU time such as "10ms",
// "1.25s" or "1.50mins" into nanoseconds.
func parseSampleValue(s string) (int64, error) {
	units := []struct {
		suffix string
		ns     float64
	}{
		{"hrs", 3600e9}, {"mins", 60e9}, {"ns", 1}, {"us", 1e3}, {"µs", 1e3}, {"ms", 1e6}, {"s", 1e9},
	}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			f, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("fold: sample value %q: %w", s, err)
			}
			return int64(f * u.ns), nil
		}
	}
	return 0, fmt.Errorf("fold: sample value %q has no time unit", s)
}

// foldProfiles symbolizes CPU profiles of this executable with
// `go tool pprof -traces` and folds them into per-module shares that
// sum to 1 over every sample.
func foldProfiles(profiles []string) (map[string]float64, int, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	args := append([]string{"tool", "pprof", "-traces", exe}, profiles...)
	cmd := exec.Command("go", args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	totals, samples, foldErr := foldTraces(out)
	if foldErr != nil {
		_, _ = io.Copy(io.Discard, out) // let pprof finish writing before Wait
	}
	if err := cmd.Wait(); err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	if foldErr != nil {
		return nil, 0, foldErr
	}
	var all int64
	for _, v := range totals {
		all += v
	}
	if samples == 0 || all == 0 {
		return nil, 0, fmt.Errorf("fold: profile holds no samples")
	}
	shares := map[string]float64{}
	for _, l := range append(append([]string(nil), foldLayers...), "other", "runtime") {
		shares[l] = float64(totals[l]) / float64(all)
	}
	return shares, samples, nil
}
