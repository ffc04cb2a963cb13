package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// hostFacts describes the machine a report was measured on: CPU count,
// GOMAXPROCS, Go version and the data cache sizes, read from sysfs
// where available. Wall-clock numbers on a shared host move between
// invocations, so every report carries this line.
func hostFacts() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s %s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cacheSizes())
}

// cacheSizes lists cpu0's unified and data caches as "L2=2048K(cpus 0)".
func cacheSizes() string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var parts []string
	for _, d := range dirs {
		read := func(f string) string {
			b, err := os.ReadFile(filepath.Join(d, f))
			if err != nil {
				return "?"
			}
			return strings.TrimSpace(string(b))
		}
		if read("type") == "Instruction" {
			continue
		}
		parts = append(parts, fmt.Sprintf("L%s=%s(cpus %s)", read("level"), read("size"), read("shared_cpu_list")))
	}
	if len(parts) == 0 {
		return "caches=unknown"
	}
	return strings.Join(parts, " ")
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB, or
// 0 when /proc is unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// rssMB returns the process's current resident set in MiB, from
// /proc/self/statm, or 0 when it is unavailable.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// median returns the middle value (mean of the two middle values for an
// even count) of xs, which it sorts in place; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tail returns the highest percentile with at least ten samples beyond
// it: the 11th-largest sample, its percentile and the sample count. With
// fewer than eleven samples it falls back to the largest sample.
func tail(xs []float64) (value, percentile float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	i := n - 11
	if i < 0 {
		i = n - 1
	}
	return sorted[i], 100 * float64(i+1) / float64(n), n
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
