package main

import (
	"strings"
	"testing"
)

func TestParseProcIO(t *testing.T) {
	const fixture = `rchar: 1940442
wchar: 7890123
syscr: 1234
syscw: 567
read_bytes: 0
write_bytes: 8192000
cancelled_write_bytes: 0
`
	got, err := parseProcIO(strings.NewReader(fixture))
	if err != nil {
		t.Fatal(err)
	}
	if got != 7890123 {
		t.Fatalf("wchar = %d, want 7890123", got)
	}
	if _, err := parseProcIO(strings.NewReader("rchar: 1\nsyscr: 1\n")); err == nil {
		t.Error("io without wchar must be an error")
	}
	if _, err := parseProcIO(strings.NewReader("wchar: x\n")); err == nil {
		t.Error("a non-numeric wchar must be an error")
	}
}

func TestParseProcStatus(t *testing.T) {
	const fixture = `Name:	vpnscoped
Umask:	0022
State:	S (sleeping)
VmPeak:	 1670540 kB
VmSize:	 1670540 kB
VmHWM:	   85116 kB
VmRSS:	   60316 kB
Threads:	9
`
	got, err := parseProcStatus(strings.NewReader(fixture))
	if err != nil {
		t.Fatal(err)
	}
	if got != 85116 {
		t.Fatalf("VmHWM = %d, want 85116", got)
	}
	if _, err := parseProcStatus(strings.NewReader("Name:\tx\n")); err == nil {
		t.Error("status without VmHWM must be an error")
	}
	if _, err := parseProcStatus(strings.NewReader("VmHWM:\t12 MB\n")); err == nil {
		t.Error("a VmHWM not in kB must be an error")
	}
}

func TestParseProcStatCPU(t *testing.T) {
	// The command name holds a space and a parenthesis: fields must be
	// counted from the last ')'.
	const line = "27087 (perf (bench) x) R 27083 27083 27083 0 -1 4194304 12915 0 0 0 90350 1234 0 0 20 0 9 0 4660 1670540 15079 18446744073709551615\n"
	got, err := parseProcStatCPU(line)
	if err != nil {
		t.Fatal(err)
	}
	if !near(got, (90350+1234)/100.0) {
		t.Fatalf("cpu = %v, want %v", got, (90350+1234)/100.0)
	}
	if _, err := parseProcStatCPU("1 (x) R 2 3"); err == nil {
		t.Error("a truncated stat line must be an error")
	}
}

func TestParseCPUSteal(t *testing.T) {
	const fixture = `cpu  2999453 0 292698 1556262 167860 0 26924 114314 0 0
cpu0 1499726 0 146349 778131 83930 0 13462 57157 0 0
intr 1
`
	steal, total, err := parseCPUSteal(strings.NewReader(fixture))
	if err != nil {
		t.Fatal(err)
	}
	if steal != 114314 || total != 2999453+292698+1556262+167860+26924+114314 {
		t.Fatalf("steal %d total %d", steal, total)
	}
	if _, _, err := parseCPUSteal(strings.NewReader("cpu0 1 2 3 4 5 6 7 8\n")); err == nil {
		t.Error("/proc/stat without the aggregate cpu line must be an error")
	}
}

func TestReadOwnProcFiles(t *testing.T) {
	if _, err := readWChar(0); err != nil {
		t.Fatalf("/proc/self/io: %v", err)
	}
	if kib, err := readPeakRSS(0); err != nil || kib <= 0 {
		t.Fatalf("/proc/self/status: %d, %v", kib, err)
	}
	if _, err := readProcCPU(0); err != nil {
		t.Fatalf("/proc/self/stat: %v", err)
	}
	if _, total, err := readCPUSteal(); err != nil || total <= 0 {
		t.Fatalf("/proc/stat: total %d, %v", total, err)
	}
}
