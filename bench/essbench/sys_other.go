//go:build !linux

package main

import (
	"errors"
	"os"
	"os/exec"
)

// The benchmark measures on Linux. Elsewhere it builds, so its tests run,
// but a run fails: ru_maxrss has no portable unit, and a workload process
// is not killed with its parent.

func killWithParent(*exec.Cmd) {}

func peakRSS(*os.ProcessState) (float64, error) {
	return 0, errors.New("essbench reads peak RSS only on Linux")
}
