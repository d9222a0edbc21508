//go:build linux

package main

import (
	"errors"
	"os"
	"os/exec"
	"syscall"
)

// killWithParent has the kernel kill cmd's process when the thread that
// started it exits, so a workload process never outlives a killed
// essbench. The caller keeps that thread (runtime.LockOSThread) until the
// process has been waited for.
func killWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// peakRSS returns an exited process's peak resident set (ru_maxrss, the
// same as VmHWM) in MiB. Linux reports it in KiB.
func peakRSS(ps *os.ProcessState) (float64, error) {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("no resource usage for the workload process")
	}
	return float64(ru.Maxrss) / 1024, nil
}
