//go:build !amd64

package main

import "runtime"

// cpuModel has no portable brand-string source; the architecture is the
// best fingerprint available.
func cpuModel() string { return runtime.GOARCH }
