//go:build !linux

package main

import "time"

// threadCPU falls back to the wall clock where no per-thread CPU clock is
// wired up; readings then also count time spent waiting for a CPU.
func threadCPU() int64 { return time.Now().UnixNano() }
