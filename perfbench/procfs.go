package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times. It is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// parseProcIO returns wchar from the "key: value" lines of
// /proc/<pid>/io: the bytes passed to write-family syscalls, files and
// sockets alike.
func parseProcIO(r io.Reader) (int64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if val, ok := strings.CutPrefix(sc.Text(), "wchar:"); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("proc io: wchar: %w", err)
			}
			return n, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("proc io: wchar missing")
}

// parseProcStatus returns VmHWM, the peak resident set in KiB, from the
// "Key:\t  value kB" lines of /proc/<pid>/status.
func parseProcStatus(r io.Reader) (int64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		val, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(val)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", val)
		}
		n, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: VmHWM: %w", err)
		}
		return n, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("proc status: VmHWM missing")
}

// parseProcStatCPU returns utime+stime in seconds from the one-line
// /proc/<pid>/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from its closing parenthesis.
func parseProcStatCPU(line string) (float64, error) {
	end := strings.LastIndexByte(line, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	// After ") " come fields 3 (state) onwards; utime and stime are
	// fields 14 and 15.
	rest := strings.Fields(line[end+1:])
	if len(rest) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command, want at least 13", len(rest))
	}
	utime, err := strconv.ParseInt(rest[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseInt(rest[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return float64(utime+stime) / clockTicks, nil
}

// parseCPUSteal returns the steal and total jiffies of the aggregate
// "cpu" line of /proc/stat: the time the hypervisor ran something else
// on this machine's virtual CPUs, out of all time accounted.
func parseCPUSteal(r io.Reader) (steal, total int64, err error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		for i, f := range fields[1:] {
			n, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return 0, 0, fmt.Errorf("proc stat: cpu field %d: %w", i+1, err)
			}
			if i < 8 { // user … steal; guest time is already inside user
				total += n
			}
			if i == 7 {
				steal = n
			}
		}
		return steal, total, nil
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	return 0, 0, fmt.Errorf("proc stat: no cpu line")
}

// readCPUSteal reads parseCPUSteal's figures from /proc/stat.
func readCPUSteal() (steal, total int64, err error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	return parseCPUSteal(f)
}

func procPath(pid int, name string) string {
	if pid == 0 {
		return "/proc/self/" + name
	}
	return fmt.Sprintf("/proc/%d/%s", pid, name)
}

// readWChar reads wchar from /proc/<pid>/io; pid 0 means this process.
func readWChar(pid int) (int64, error) {
	f, err := os.Open(procPath(pid, "io"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseProcIO(f)
}

// readPeakRSS reads VmHWM in KiB from /proc/<pid>/status; pid 0 means
// this process.
func readPeakRSS(pid int) (int64, error) {
	f, err := os.Open(procPath(pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseProcStatus(f)
}

// readProcCPU reads a process's user+system CPU seconds.
func readProcCPU(pid int) (float64, error) {
	b, err := os.ReadFile(procPath(pid, "stat"))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(b))
}
