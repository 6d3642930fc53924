// Package profile writes the host CPU and heap profiles that the
// command-line tools take with -cpuprofile and -memprofile. Read them with
// `go tool pprof -top FILE`.
package profile

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile into cpuFile, if it is set, and returns a
// function that stops it and then writes a heap profile into memFile, if
// that is set. Callers run the returned function on every exit path, so a
// failed run still leaves its profiles behind.
func Start(cpuFile, memFile string) (stop func() error, err error) {
	var cpu *os.File
	if cpuFile != "" {
		if cpu, err = os.Create(cpuFile); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if memFile != "" {
			errs = append(errs, writeHeap(memFile))
		}
		return errors.Join(errs...)
	}, nil
}

// writeHeap writes a heap profile as of the last completed GC, forcing one
// first so the profile covers everything allocated so far.
func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
