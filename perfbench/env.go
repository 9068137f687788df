package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// nproc is the number of CPUs the process may run on (its affinity
// mask), as coreutils nproc reports it. Sweep workers and parallel
// backend threads are set to it.
func nproc() int { return runtime.NumCPU() }

// provenance identifies what produced a result and where.
type provenance struct {
	Commit     string  `json:"commit"`
	Dirty      string  `json:"dirty"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Nproc      int     `json:"nproc"`
	Affinity   string  `json:"cpu_affinity"`
	CPUModel   string  `json:"cpu_model"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Workers    int     `json:"sweep_workers"`
	Threads    int     `json:"backend_threads"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

func newProvenance(w workload, seed uint64, seconds float64, trace bool) provenance {
	p := provenance{
		Commit:     "unknown",
		Dirty:      "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Nproc:      nproc(),
		Affinity:   procStatus("Cpus_allowed_list"),
		CPUModel:   cpuModel(),
		Workload:   w.name,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
	}
	// The go command stamps the commit and the dirty flag when it
	// builds inside a git work tree; outside one both stay "unknown".
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Dirty = s.Value
			}
		}
	}
	if w.grid != nil {
		p.Workers = nproc()
	} else {
		p.Threads = nproc()
	}
	return p
}

// procStatus returns a field of /proc/self/status ("" if absent).
func procStatus(key string) string {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && k == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	f := strings.Fields(procStatus("VmHWM"))
	if len(f) == 0 {
		return 0
	}
	kb, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totalAlloc is the cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
