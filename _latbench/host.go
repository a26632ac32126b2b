package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// hostStamp identifies the machine and build a result was measured on,
// so results from different hosts are never compared silently.
type hostStamp struct {
	GOMAXPROCS       int     `json:"gomaxprocs"`
	NProc            int     `json:"nproc"`
	CPUModel         string  `json:"cpu_model"`
	GoVersion        string  `json:"go_version"`
	Commit           string  `json:"commit"`
	SleepOvershootUs float64 `json:"sleep_overshoot_us"`
}

func stampHost() hostStamp {
	return hostStamp{
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		NProc:            runtime.NumCPU(),
		CPUModel:         cpuModel(),
		GoVersion:        runtime.Version(),
		Commit:           commit(),
		SleepOvershootUs: sleepOvershoot(wanLatency, 50),
	}
}

// cpuModel is the first "model name" in /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checked-out commit when the benchmark runs from the root
// of a git work tree, else "unknown".
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sleepOvershoot is the median of n measured time.Sleep(d) calls minus
// d, in µs: the floor under every live delivery with non-zero latency.
func sleepOvershoot(d time.Duration, n int) float64 {
	over := make([]float64, n)
	for i := range over {
		t0 := time.Now()
		time.Sleep(d)
		over[i] = float64(time.Since(t0)-d) / float64(time.Microsecond)
	}
	return median(over)
}
