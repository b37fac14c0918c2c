package main

import (
	"encoding/binary"
	"strings"
)

// cpuid executes the CPUID instruction (cpu_amd64.s).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// cpuModel returns the processor brand string from CPUID leaves
// 0x80000002-0x80000004.
func cpuModel() string {
	if maxLeaf, _, _, _ := cpuid(0x80000000, 0); maxLeaf < 0x80000004 {
		return "unknown"
	}
	var b []byte
	for leaf := uint32(0x80000002); leaf <= 0x80000004; leaf++ {
		a, bx, c, d := cpuid(leaf, 0)
		for _, r := range [4]uint32{a, bx, c, d} {
			b = binary.LittleEndian.AppendUint32(b, r)
		}
	}
	return strings.TrimRight(string(b), "\x00")
}
