package main

// The host stamp every report carries. Results are comparable only
// between runs whose stamps match on nproc, GOMAXPROCS, CPU model and Go
// version.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha,omitempty"`
	SourceSHA  string `json:"source_sha256"`
}

func hostStamp() stamp {
	return stamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GitSHA:     gitSHA(),
		SourceSHA:  sourceSHA("."),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
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

// gitSHA is the commit the binary was built from, when the build ran in
// a git checkout (Go stamps it); empty otherwise.
func gitSHA() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	sha, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			sha = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if sha != "" && dirty {
		sha += "-dirty"
	}
	return sha
}

// sourceSHA hashes every Go source and module file under root, so runs
// from checkouts that are not git repositories still name the code they
// measured. Hidden directories (build output) are skipped.
func sourceSHA(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
