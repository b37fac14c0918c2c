#include "textflag.h"

// func cpuHasAVX2() bool
//
// Standard AVX2 detection ladder: max CPUID leaf >= 7, CPUID.1:ECX
// OSXSAVE(27) and AVX(28), XCR0 XMM|YMM state enabled by the OS, and
// CPUID.7.0:EBX AVX2(5).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL $0, AX
	MOVL $0, CX
	CPUID
	CMPL AX, $7
	JLT  no

	MOVL $1, AX
	MOVL $0, CX
	CPUID
	ANDL $(1<<27 | 1<<28), CX
	CMPL CX, $(1<<27 | 1<<28)
	JNE  no

	MOVL   $0, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    no

	MOVL  $7, AX
	MOVL  $0, CX
	CPUID
	TESTL $(1<<5), BX
	JZ    no

	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func cpuHasFMA() bool
//
// CPUID.1:ECX FMA(12). Only meaningful once cpuHasAVX2 has confirmed
// the OS saves YMM state, which FMA's VEX encodings also need.
TEXT ·cpuHasFMA(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	MOVL  $0, CX
	CPUID
	SHRL  $12, CX
	ANDL  $1, CX
	MOVB  CX, ret+0(FP)
	RET
