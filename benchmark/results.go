package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// runRecord is one workload run in a result file.
type runRecord struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Failures  []string          `json:"failures,omitempty"`
}

// hostInfo says where a result file was measured; numbers from different
// hosts or commits are not comparable, and -compare prints both.
type hostInfo struct {
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	CPUModel  string `json:"cpu_model"`
	LoadAvg   string `json:"loadavg_at_start"`
	GitCommit string `json:"git_commit"`
}

// resultFile accumulates runs: ten runs appended to one file are one side
// of a -compare.
type resultFile struct {
	Schema int         `json:"schema"`
	Host   hostInfo    `json:"host"`
	Runs   []runRecord `json:"runs"`
}

func readHost(root string) hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), CPUModel: "unknown", GitCommit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		h.LoadAvg = strings.TrimSpace(string(data))
	}
	// The driver's checkout is not a git repository; "unknown" is the answer there.
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(out))
	}
	return h
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// appendResult adds rec to the result file at path, creating it if absent.
func appendResult(path, root string, rec *runRecord) error {
	rf, err := readResults(path)
	if os.IsNotExist(err) {
		rf, err = &resultFile{Schema: 1, Host: readHost(root)}, nil
	}
	if err != nil {
		return err
	}
	rf.Runs = append(rf.Runs, *rec)
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
