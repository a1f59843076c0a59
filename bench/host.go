package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostShape is recorded in every output file: numbers from two hosts are
// never compared without it.
type hostShape struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
}

// maxProcs caps GOMAXPROCS so the engine's worker count does not follow a
// large host: the benchmark is sized for a small box.
const maxProcs = 4

// fixProcs pins GOMAXPROCS to min(nproc, maxProcs) and returns it; the
// engine's Workers and PoolWorkers use the same number.
func fixProcs() int {
	p := runtime.NumCPU()
	if p > maxProcs {
		p = maxProcs
	}
	runtime.GOMAXPROCS(p)
	return p
}

func readHost() hostShape {
	return hostShape{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   procField("/proc/cpuinfo", "model name"),
	}
}

// procField returns the value of the first "key : value" line of a /proc
// file, "" when the file or key is missing (non-Linux hosts).
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads VmHWM, the process's peak resident set.
func peakRSSMiB() float64 {
	kb, _ := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	return kb / 1024
}

// resetPeakRSS restarts VmHWM from the current resident set, so the peak
// reported after the timed part is the serving footprint (catalog +
// query memory) and not the garbage of data generation and the oracle.
// Where the kernel refuses, the peak simply includes set-up.
func resetPeakRSS() {
	debug.FreeOSMemory() // collect, and hand the freed pages back now rather than lazily
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// gcCPUSeconds is the CPU time the Go collector has used so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}
