package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// envRecord is the context a number was measured in; every run record
// carries one, because a latency without its machine is not comparable
// with anything.
type envRecord struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	TempFS     string `json:"temp_fs"`
}

func environment(tmpRoot string) envRecord {
	return envRecord{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GitSHA:     gitSHA(),
		TempFS:     fsType(tmpRoot),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// gitSHA is the checked-out commit, "unknown" outside a git checkout
// (the acceptance driver runs from an exported tree).
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem durable directories land on, by its
// statfs magic number.
func fsType(dir string) string {
	for d := dir; ; d = d + "/.." {
		var st syscall.Statfs_t
		if err := syscall.Statfs(d, &st); err == nil {
			switch uint32(st.Type) {
			case 0xEF53:
				return "ext4"
			case 0x01021994:
				return "tmpfs"
			case 0x58465342:
				return "xfs"
			case 0x794c7630:
				return "overlayfs"
			case 0x9123683E:
				return "btrfs"
			}
			return fmt.Sprintf("0x%x", uint32(st.Type))
		}
		if len(d) > len(dir)+12 {
			return "unknown"
		}
	}
}

// decodeJSON reads a 200 response's JSON body into v and closes it.
func decodeJSON(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
