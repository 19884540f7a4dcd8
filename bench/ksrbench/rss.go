package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// peakRSSMB returns the process's peak resident set size in MiB, from
// VmHWM in /proc/self/status. Where that file does not exist it falls
// back to the Go runtime's total reservation from the OS, which is an
// upper bound on the Go heap's share of it.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
