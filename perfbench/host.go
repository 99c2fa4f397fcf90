package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// host fingerprints where and what a result was measured on. Results from
// hosts that differ in anything but Revision are not comparable.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Platform   string `json:"platform"`
	// Revision identifies the measured program: a hash of the checkout's
	// Go sources, since the checkout need not be a git repository.
	Revision string `json:"revision"`
}

func fingerprint(root, skip string) host {
	return host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		Revision:   sourceRevision(root, skip),
	}
}

// sameMachine reports whether two fingerprints differ at most in Revision.
func (h host) sameMachine(o host) bool {
	h.Revision, o.Revision = "", ""
	return h == o
}

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

// sourceRevision hashes the path and content of every .go and go.mod file
// under root, skipping hidden directories and skip (the build directory).
func sourceRevision(root, skip string) string {
	h := sha256.New()
	skipAbs, _ := filepath.Abs(skip)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			abs, _ := filepath.Abs(path)
			if path != root && (strings.HasPrefix(d.Name(), ".") || abs == skipAbs) {
				return filepath.SkipDir
			}
			return nil
		}
		if !d.Type().IsRegular() || (filepath.Ext(path) != ".go" && d.Name() != "go.mod") {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(rel)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}
