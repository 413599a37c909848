package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// revision is the VCS revision of the benchmarked tree, set at build
// time by run.sh ("none" outside a git checkout).
var revision = "none"

// provenance identifies what a result was measured on, so that results
// from different hosts or commits are not compared without notice.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Scale      string `json:"scale"`
	Seconds    int    `json:"seconds"`
	Passes     int    `json:"passes"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Revision   string `json:"revision"`
	SrcDigest  string `json:"src_digest"`
}

func newProvenance(workload string, seed uint64, seconds, passes int, trace bool) provenance {
	return provenance{
		Workload:   workload,
		Seed:       seed,
		Scale:      "small",
		Seconds:    seconds,
		Passes:     passes,
		Trace:      trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Revision:   revision,
		SrcDigest:  srcDigest("."),
	}
}

// cpuModel returns the host CPU's model name from /proc/cpuinfo, or
// "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// srcDigest hashes every Go source and go.mod file under root, skipping
// hidden directories (build output), so that a checkout without VCS
// metadata still identifies the code it measured. It returns the first
// 16 hex digits of the SHA-256, or "unknown" if the tree cannot be read.
func srcDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}
