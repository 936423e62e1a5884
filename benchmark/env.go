package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// envStamp records where a result came from; every history line
// carries one.
type envStamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Kernel     string `json:"kernel"`
	CPUModel   string `json:"cpu_model"`
	Loopback   string `json:"loopback"`
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// headCommit resolves HEAD of the repository that holds the benchmark
// directory by reading .git directly (the benchmark starts no
// processes); a checkout without .git reports "unknown".
func headCommit(repo string) string {
	git := filepath.Join(repo, ".git")
	head := readTrim(filepath.Join(git, "HEAD"))
	ref, isRef := strings.CutPrefix(head, "ref: ")
	if !isRef {
		if head == "" {
			return "unknown"
		}
		return head
	}
	if sha := readTrim(filepath.Join(git, ref)); sha != "" {
		return sha
	}
	for _, line := range strings.Split(readTrim(filepath.Join(git, "packed-refs")), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
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

func stampEnv() envStamp {
	return envStamp{
		Commit:     headCommit(".."),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Kernel:     readTrim("/proc/sys/kernel/osrelease"),
		CPUModel:   cpuModel(),
		Loopback:   "tcp 127.0.0.1, lo mtu " + readTrim("/sys/class/net/lo/mtu"),
	}
}

// historyLine is one run's record in the append-only trajectory
// (out/history.ndjson), keyed by commit, workload and seed. -compare
// reads two such files.
type historyLine struct {
	Time      string             `json:"time"`
	Env       envStamp           `json:"env"`
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Smoke     bool               `json:"smoke,omitempty"`
	Rounds    int                `json:"rounds"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

func appendHistory(path string, res *runResult, cfg runConfig) error {
	line := historyLine{
		Time: time.Now().UTC().Format(time.RFC3339), Env: stampEnv(),
		Workload: cfg.w.name, Seed: cfg.seed, Traced: cfg.trace, Smoke: cfg.smoke,
		Rounds: res.rounds, Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Errors: res.errs,
		Metrics: make(map[string]float64, len(res.metrics)),
	}
	for name, v := range res.metrics {
		line.Metrics[name] = v.v
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
