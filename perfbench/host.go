package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// host is the fingerprint every result records.
type host struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func fingerprint(root, skip string) host {
	return host{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitOf(root, skip),
	}
}

// commitOf names the source the benchmark was built from: the git commit
// when root is a git checkout, otherwise a digest of every Go source and
// module file under root, skipping the build directory skip.
func commitOf(root, skip string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		name, isRef := strings.CutPrefix(ref, "ref: ")
		if !isRef {
			return "git:" + ref
		}
		if id, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
			return "git:" + strings.TrimSpace(string(id))
		}
		if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
			for _, line := range strings.Split(string(packed), "\n") {
				if id, ok := strings.CutSuffix(line, " "+name); ok {
					return "git:" + id
				}
			}
		}
	}
	h := sha256.New()
	skipAbs, _ := filepath.Abs(skip)
	filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() {
			if abs, _ := filepath.Abs(path); abs == skipAbs || (path != root && strings.HasPrefix(e.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if name := e.Name(); strings.HasSuffix(name, ".go") || name == "go.mod" {
			if b, err := os.ReadFile(path); err == nil {
				h.Write([]byte(path))
				h.Write(b)
			}
		}
		return nil
	})
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
