package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"ppanns/internal/dce"
	"ppanns/internal/vec"
)

// hostStamp is printed with every output, so that a number is never read
// without the machine and the build it came from.
type hostStamp struct {
	NumCPU, GOMAXPROCS   int
	GoVersion, CPU       string
	VecKernel, DCEKernel string
	Commit               string
}

func stampHost() hostStamp {
	h := hostStamp{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPU: "unknown", VecKernel: vec.ActiveKernel(), DCEKernel: dce.ActiveKernel(), Commit: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimLeft(name, " \t:"))
				break
			}
		}
	}
	// The go tool stamps the commit into binaries built inside a git
	// checkout; the driver's checkout is not one.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func (h hostStamp) String() string {
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d %s cpu=%q vec=%s dce=%s commit=%s",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPU, h.VecKernel, h.DCEKernel, h.Commit)
}
