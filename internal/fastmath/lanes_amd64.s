#include "textflag.h"

// Four-lane AVX2 transcriptions of Sincos (fastmath.go), of the
// Box-Muller pair Sqrt(-2*Log(u)) * (cos, sin)(2*Pi*v) (NormPair) and of
// the breakpoint power x^0.75 (Pow075).
//
// Every YMM arithmetic instruction applies the identical scalar IEEE
// operation (VMULPD = MULSD, VADDPD = ADDSD, VDIVPD = DIVSD, VSQRTPD =
// SQRTSD, VFMADD213PD = VFMADD213SD, each correctly rounded in the
// default rounding mode) to each 64-bit lane independently, so running
// four inputs side by side cannot change a bit of any of them. FMA
// appears only in EXP4, exactly where math's exp_amd64.s fuses on an
// FMA host; everywhere else every multiply and add rounds separately,
// exactly as the Go compiler emits the scalar code on amd64 and as
// math's log_amd64.s computes archLog. IEEE add and multiply are
// commutative bit-for-bit, so operand order within one operation is
// free; the order of operations is not, and follows the scalar source
// step for step.
//
// Lanes outside a kernel's domain (|angle| >= 2^29, NaN, Inf; for the
// log u <= 0, Inf or NaN; for the power x outside [2^-1022, 2^1022)) are
// not computed here: the kernel stops at the first quad holding one and
// returns how many elements it finished, and the Go wrapper runs that
// quad through the scalar code.

// Constant table: each entry is one float64 bit pattern replicated into
// four lanes (32 bytes), so every constant is a full-width memory
// operand.
#define VEC(off, bits) \
	DATA lanec<>+(off)(SB)/8, $bits;    \
	DATA lanec<>+(off+8)(SB)/8, $bits;  \
	DATA lanec<>+(off+16)(SB)/8, $bits; \
	DATA lanec<>+(off+24)(SB)/8, $bits

VEC(0, 0x7FFFFFFFFFFFFFFF)   // absolute-value mask
VEC(32, 0x8000000000000000)  // sign bit
VEC(64, 0x41C0000000000000)  // 2^29, Sincos's reduction threshold
VEC(96, 0x3FF45F306DC9C883)  // 4/Pi
VEC(128, 0x3FE921FB40000000) // PI4A
VEC(160, 0x3E64442D00000000) // PI4B
VEC(192, 0x3CE8469898CC5170) // PI4C
VEC(224, 0x3DE5D8FD1FD19CCD) // _sin[0]
VEC(256, 0xBE5AE5E5A9291F5D) // _sin[1]
VEC(288, 0x3EC71DE3567D48A1) // _sin[2]
VEC(320, 0xBF2A01A019BFDF03) // _sin[3]
VEC(352, 0x3F8111111110F7D0) // _sin[4]
VEC(384, 0xBFC5555555555548) // _sin[5]
VEC(416, 0xBDA8FA49A0861A9B) // _cos[0]
VEC(448, 0x3E21EE9D7B4E3F05) // _cos[1]
VEC(480, 0xBE927E4F7EAC4BC6) // _cos[2]
VEC(512, 0x3EFA01A019C844F5) // _cos[3]
VEC(544, 0xBF56C16C16C14F91) // _cos[4]
VEC(576, 0x3FA555555555554B) // _cos[5]
VEC(608, 0x3FE0000000000000) // 0.5
VEC(640, 0x3FF0000000000000) // 1.0
VEC(672, 0x4000000000000000) // 2.0
VEC(704, 0xC000000000000000) // -2.0
VEC(736, 0x401921FB54442D18) // 2*Pi
VEC(768, 0x7FF0000000000000) // +Inf
VEC(800, 0x000FFFFFFFFFFFFF) // mantissa mask
VEC(832, 0x4330000000000000) // 2^52
VEC(864, 0x43300000000003FE) // 2^52 + 1022
VEC(896, 0x3FE6A09E667F3BCD) // HSqrt2
VEC(928, 0x3FE62E42FEE00000) // Ln2Hi
VEC(960, 0x3DEA39EF35793C76) // Ln2Lo
VEC(992, 0x3FE5555555555593)  // L1
VEC(1024, 0x3FD999999997FA04) // L2
VEC(1056, 0x3FD2492494229359) // L3
VEC(1088, 0x3FCC71C51D8E78AF) // L4
VEC(1120, 0x3FC7466496CB03DE) // L5
VEC(1152, 0x3FC39A09D078C69F) // L6
VEC(1184, 0x3FC2F112DF3E5244) // L7
VEC(1216, 0x3FF71547652B82FE) // LOG2E
VEC(1248, 0x3FE62E42FEFA3000) // LN2U
VEC(1280, 0x3D53DE6AF278ECE6) // LN2L
VEC(1312, 0x3FB0000000000000) // 0.0625
VEC(1344, 0x3FC5555555555555) // exp C2
VEC(1376, 0x3FA5555555555555) // exp C3
VEC(1408, 0x3F81111111111111) // exp C4
VEC(1440, 0x3F56C16C16C16C17) // exp C5
VEC(1472, 0x3F2A01A01A01A01A) // exp C6
VEC(1504, 0x3EFA01A01A01A01A) // exp C7
VEC(1536, 0xBFD0000000000000) // -0.25
VEC(1568, 0x0010000000000000) // 2^-1022, the smallest normal
VEC(1600, 0x7FD0000000000000) // 2^1022
GLOBL lanec<>(SB), RODATA|NOPTR, $1632

#define ABSMASK lanec<>+0(SB)
#define SIGNBIT lanec<>+32(SB)
#define THRESH  lanec<>+64(SB)
#define FOURPI  lanec<>+96(SB)
#define PI4A    lanec<>+128(SB)
#define PI4B    lanec<>+160(SB)
#define PI4C    lanec<>+192(SB)
#define SIN0    lanec<>+224(SB)
#define SIN1    lanec<>+256(SB)
#define SIN2    lanec<>+288(SB)
#define SIN3    lanec<>+320(SB)
#define SIN4    lanec<>+352(SB)
#define SIN5    lanec<>+384(SB)
#define COS0    lanec<>+416(SB)
#define COS1    lanec<>+448(SB)
#define COS2    lanec<>+480(SB)
#define COS3    lanec<>+512(SB)
#define COS4    lanec<>+544(SB)
#define COS5    lanec<>+576(SB)
#define HALF    lanec<>+608(SB)
#define ONE     lanec<>+640(SB)
#define TWO     lanec<>+672(SB)
#define MTWO    lanec<>+704(SB)
#define TWOPI   lanec<>+736(SB)
#define POSINF  lanec<>+768(SB)
#define MANT    lanec<>+800(SB)
#define EXP52   lanec<>+832(SB)
#define EXPBIAS lanec<>+864(SB)
#define HSQRT2  lanec<>+896(SB)
#define LN2HI   lanec<>+928(SB)
#define LN2LO   lanec<>+960(SB)
#define L1      lanec<>+992(SB)
#define L2      lanec<>+1024(SB)
#define L3      lanec<>+1056(SB)
#define L4      lanec<>+1088(SB)
#define L5      lanec<>+1120(SB)
#define L6      lanec<>+1152(SB)
#define L7      lanec<>+1184(SB)
#define LOG2E   lanec<>+1216(SB)
#define LN2U    lanec<>+1248(SB)
#define LN2L    lanec<>+1280(SB)
#define SIXTEENTH lanec<>+1312(SB)
#define EC2     lanec<>+1344(SB)
#define EC3     lanec<>+1376(SB)
#define EC4     lanec<>+1408(SB)
#define EC5     lanec<>+1440(SB)
#define EC6     lanec<>+1472(SB)
#define EC7     lanec<>+1504(SB)
#define MQUARTER lanec<>+1536(SB)
#define MINNORM lanec<>+1568(SB)
#define POWMAX  lanec<>+1600(SB)

// SINCOS4: Y1 = sin(Y0), Y2 = cos(Y0) for four in-range lanes, given
// Y1 = |Y0|. Clobbers Y3-Y7. Step for step the scalar Sincos:
//
//	j = uint64(ax * (4/Pi))   VCVTTPD2DQ truncates like CVTTSD2SQ; j < 2^30
//	j += j & 1; y = float64(j) exact in int32 and in the conversion
//	z = ((ax - y*PI4A) - y*PI4B) - y*PI4C
//	zz = z*z
//	cos = (1 - 0.5*zz) + (zz*zz)*((((((c0*zz)+c1)*zz+c2)*zz+c3)*zz+c4)*zz+c5)
//	sin = z + (z*zz)*((((((s0*zz)+s1)*zz+s2)*zz+s3)*zz+s4)*zz+s5)
//
// j is even after the increment, so the octant ladder depends only on
// its bits 1 and 2: swap sin/cos when bit 1 is set (VBLENDVPD reads the
// lane's top bit, here j<<62), negate sin when bit 2 XOR sign(x), negate
// cos when bit 2 XOR bit 1. Negation is a sign-bit XOR, exactly IEEE
// negation, and the blend only moves values.
#define SINCOS4 \
	VMULPD     FOURPI, Y1, Y2;     \
	VCVTTPD2DQY Y2, X3;            \
	VPCMPEQD   X4, X4, X4;         \
	VPSRLD     $31, X4, X4;        \
	VPAND      X3, X4, X4;         \
	VPADDD     X4, X3, X3;         \
	VCVTDQ2PD  X3, Y4;             \
	VPMOVZXDQ  X3, Y3;             \
	VMULPD     PI4A, Y4, Y5;       \
	VSUBPD     Y5, Y1, Y1;         \
	VMULPD     PI4B, Y4, Y5;       \
	VSUBPD     Y5, Y1, Y1;         \
	VMULPD     PI4C, Y4, Y5;       \
	VSUBPD     Y5, Y1, Y1;         \
	VMULPD     Y1, Y1, Y2;         \
	VMULPD     COS0, Y2, Y4;       \
	VADDPD     COS1, Y4, Y4;       \
	VMULPD     Y2, Y4, Y4;         \
	VADDPD     COS2, Y4, Y4;       \
	VMULPD     Y2, Y4, Y4;         \
	VADDPD     COS3, Y4, Y4;       \
	VMULPD     Y2, Y4, Y4;         \
	VADDPD     COS4, Y4, Y4;       \
	VMULPD     Y2, Y4, Y4;         \
	VADDPD     COS5, Y4, Y4;       \
	VMULPD     Y2, Y2, Y5;         \
	VMULPD     Y5, Y4, Y4;         \
	VMULPD     HALF, Y2, Y5;       \
	VMOVUPD    ONE, Y6;            \
	VSUBPD     Y5, Y6, Y6;         \
	VADDPD     Y4, Y6, Y6;         \
	VMULPD     SIN0, Y2, Y4;       \
	VADDPD     SIN1, Y4, Y4;       \
	VMULPD     Y2, Y4, Y4;         \
	VADDPD     SIN2, Y4, Y4;       \
	VMULPD     Y2, Y4, Y4;         \
	VADDPD     SIN3, Y4, Y4;       \
	VMULPD     Y2, Y4, Y4;         \
	VADDPD     SIN4, Y4, Y4;       \
	VMULPD     Y2, Y4, Y4;         \
	VADDPD     SIN5, Y4, Y4;       \
	VMULPD     Y2, Y1, Y5;         \
	VMULPD     Y5, Y4, Y4;         \
	VADDPD     Y1, Y4, Y5;         \
	VPSLLQ     $62, Y3, Y7;        \
	VPSLLQ     $61, Y3, Y3;        \
	VBLENDVPD  Y7, Y6, Y5, Y1;     \
	VBLENDVPD  Y7, Y5, Y6, Y2;     \
	VXORPD     Y3, Y7, Y7;         \
	VANDPD     SIGNBIT, Y7, Y7;    \
	VXORPD     Y7, Y2, Y2;         \
	VXORPD     Y0, Y3, Y3;         \
	VANDPD     SIGNBIT, Y3, Y3;    \
	VXORPD     Y3, Y1, Y1

// LOG4: Y9 = Log(Y9) for four positive finite lanes, math/log_amd64.s
// archLog op for op. Clobbers Y10-Y15.
//
//	f1 = mantissa(x) | 0.5; k = float64(exponent(x) - 1022)
//
// archLog converts the integer with CVTSL2SD; here the biased exponent
// is OR-ed into the mantissa of 2^52 and 2^52+1022 subtracted, which
// yields the same small integer exactly (both operands and the
// difference are exact, and a zero difference is +0 like the
// conversion). The Sqrt2/2 adjustment is archLog's mask arithmetic: its
// CMPSD NLT(HSqrt2, f1) is f1 <= HSqrt2 for the never-NaN f1, the mask
// AND 1.0 is subtracted from k, and f1 is multiplied by mask+1.
//
//	f = f1 - 1; s = f / (2 + f); s2 = s*s; s4 = s2*s2
//	t1 = s2 * (((L7*s4 + L5)*s4 + L3)*s4 + L1)
//	t2 = s4 * ((L6*s4 + L4)*s4 + L2)
//	R = t1 + t2; hfsq = 0.5*f*f
//	log = k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
#define LOG4 \
	VANDPD     MANT, Y9, Y10;      \
	VORPD      HALF, Y10, Y10;     \
	VPSRLQ     $52, Y9, Y11;       \
	VPOR       EXP52, Y11, Y11;    \
	VSUBPD     EXPBIAS, Y11, Y11;  \
	VCMPPD     $2, HSQRT2, Y10, Y12; \
	VANDPD     ONE, Y12, Y12;      \
	VSUBPD     Y12, Y11, Y11;      \
	VADDPD     ONE, Y12, Y12;      \
	VMULPD     Y12, Y10, Y10;      \
	VSUBPD     ONE, Y10, Y10;      \
	VADDPD     TWO, Y10, Y12;      \
	VDIVPD     Y12, Y10, Y12;      \
	VMULPD     Y12, Y12, Y13;      \
	VMULPD     Y13, Y13, Y14;      \
	VMULPD     L7, Y14, Y15;       \
	VADDPD     L5, Y15, Y15;       \
	VMULPD     Y14, Y15, Y15;      \
	VADDPD     L3, Y15, Y15;       \
	VMULPD     Y14, Y15, Y15;      \
	VADDPD     L1, Y15, Y15;       \
	VMULPD     Y15, Y13, Y13;      \
	VMULPD     L6, Y14, Y15;       \
	VADDPD     L4, Y15, Y15;       \
	VMULPD     Y14, Y15, Y15;      \
	VADDPD     L2, Y15, Y15;       \
	VMULPD     Y15, Y14, Y14;      \
	VADDPD     Y14, Y13, Y13;      \
	VMULPD     HALF, Y10, Y14;     \
	VMULPD     Y10, Y14, Y14;      \
	VADDPD     Y14, Y13, Y13;      \
	VMULPD     Y13, Y12, Y12;      \
	VMULPD     LN2LO, Y11, Y13;    \
	VADDPD     Y13, Y12, Y12;      \
	VSUBPD     Y12, Y14, Y14;      \
	VSUBPD     Y10, Y14, Y14;      \
	VMULPD     LN2HI, Y11, Y11;    \
	VSUBPD     Y14, Y11, Y9

// EXP4: Y1 = Exp(Y1) for four lanes whose results are normal numbers,
// math/exp_amd64.s archExp's FMA variant (the path math.Exp takes on an
// AVX2+FMA host) op for op. Clobbers Y2, Y3. Each VFMADD/VFNMADD lane
// rounds once, exactly like the scalar VFMADD213SD/VFNMADD231SD it
// stands for.
//
//	k = int32(LOG2E*x)       VCVTPD2DQ rounds by MXCSR like CVTSD2SL
//	z = x - k*LN2U; z = z - k*LN2L    (fused)
//	z *= 0.0625
//	p = ((((((C7*z + C6)*z + C5)*z + C4)*z + C3)*z + C2)*z + 0.5)*z + 1   (fused)
//	fr = z*p; fr = fr*(2+fr) three times; fr = fr*(2+fr) + 1   (last fused)
//	exp = fr * float64frombits((k+0x3FF) << 52)
//
// archExp's overflow, denormal and special-case exits are not
// transcribed: callers keep every lane inside the range where none of
// them is taken.
#define EXP4 \
	VMULPD       LOG2E, Y1, Y2;    \
	VCVTPD2DQY   Y2, X3;           \
	VCVTDQ2PD    X3, Y2;           \
	VFNMADD231PD LN2U, Y2, Y1;     \
	VFNMADD231PD LN2L, Y2, Y1;     \
	VMULPD       SIXTEENTH, Y1, Y1; \
	VMOVUPD      EC7, Y2;          \
	VFMADD213PD  EC6, Y1, Y2;      \
	VFMADD213PD  EC5, Y1, Y2;      \
	VFMADD213PD  EC4, Y1, Y2;      \
	VFMADD213PD  EC3, Y1, Y2;      \
	VFMADD213PD  EC2, Y1, Y2;      \
	VFMADD213PD  HALF, Y1, Y2;     \
	VFMADD213PD  ONE, Y1, Y2;      \
	VMULPD       Y2, Y1, Y1;       \
	VADDPD       TWO, Y1, Y2;      \
	VMULPD       Y2, Y1, Y1;       \
	VADDPD       TWO, Y1, Y2;      \
	VMULPD       Y2, Y1, Y1;       \
	VADDPD       TWO, Y1, Y2;      \
	VMULPD       Y2, Y1, Y1;       \
	VADDPD       TWO, Y1, Y2;      \
	VFMADD213PD  ONE, Y2, Y1;      \
	VPMOVSXDQ    X3, Y3;           \
	VPSLLQ       $52, Y3, Y3;      \
	VPADDQ       ONE, Y3, Y3;      \
	VMULPD       Y3, Y1, Y1

// func sincos4(x, sin, cos *float64, n int) int
//
// Computes sin/cos for x[0:n] (n a multiple of 4) one quad at a time and
// returns the number of elements done: n, or the start of the first quad
// holding a lane with |x| >= 2^29, NaN or Inf.
TEXT ·sincos4(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), SI
	MOVQ sin+8(FP), DI
	MOVQ cos+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ BX, BX

sloop:
	CMPQ BX, CX
	JGE  sdone
	VMOVUPD   (SI)(BX*8), Y0
	VANDPD    ABSMASK, Y0, Y1
	VCMPPD    $1, THRESH, Y1, Y8
	VMOVMSKPD Y8, AX
	CMPQ      AX, $15
	JNE       sdone
	SINCOS4
	VMOVUPD   Y1, (DI)(BX*8)
	VMOVUPD   Y2, (DX)(BX*8)
	ADDQ      $4, BX
	JMP       sloop

sdone:
	MOVQ BX, ret+32(FP)
	VZEROUPPER
	RET

// func normPairs4(u, v, zc, zs *float64, n int) int
//
// Computes mag = Sqrt(-2*Log(u)) and (zc, zs) = mag*(cos, sin)(2*Pi*v)
// for u/v[0:n] (n a multiple of 4) one quad at a time, in NormPair's
// operation order, and returns the number of elements done: n, or the
// start of the first quad holding a u that is not positive and finite
// or an angle outside Sincos's reduction range.
TEXT ·normPairs4(SB), NOSPLIT, $0-48
	MOVQ u+0(FP), SI
	MOVQ v+8(FP), R8
	MOVQ zc+16(FP), DI
	MOVQ zs+24(FP), DX
	MOVQ n+32(FP), CX
	XORQ BX, BX

nloop:
	CMPQ BX, CX
	JGE  ndone
	VMOVUPD   (SI)(BX*8), Y9
	VMOVUPD   (R8)(BX*8), Y0
	VMULPD    TWOPI, Y0, Y0
	VXORPD    Y8, Y8, Y8
	VCMPPD    $0x1E, Y8, Y9, Y10
	VCMPPD    $1, POSINF, Y9, Y11
	VANDPD    Y11, Y10, Y10
	VANDPD    ABSMASK, Y0, Y1
	VCMPPD    $1, THRESH, Y1, Y11
	VANDPD    Y11, Y10, Y10
	VMOVMSKPD Y10, AX
	CMPQ      AX, $15
	JNE       ndone
	LOG4
	VMULPD    MTWO, Y9, Y9
	VSQRTPD   Y9, Y9
	SINCOS4
	VMULPD    Y2, Y9, Y2
	VMULPD    Y1, Y9, Y1
	VMOVUPD   Y2, (DI)(BX*8)
	VMOVUPD   Y1, (DX)(BX*8)
	ADDQ      $4, BX
	JMP       nloop

ndone:
	MOVQ BX, ret+40(FP)
	VZEROUPPER
	RET

// func pow0754(x, y *float64, n int) int
//
// Computes y = Pow075(x) for x[0:n] (n a multiple of 4) one quad at a
// time and returns the number of elements done: n, or the start of the
// first quad holding a lane outside [2^-1022, 2^1022) (which catches
// zero, negatives, denormals, NaN and Inf). x and y may be the same
// array: each quad is loaded before it is stored. Per lane, Pow075's
// sequence:
//
//	x1, xe = Frexp(x)        mantissa | 0.5, biased exponent - 1022
//	a = Exp(-0.25 * Log(x))  LOG4, VMULPD, EXP4
//	a *= x1
//	y = Ldexp(a, xe)         exponent field + xe
//
// On this domain Log(x) lies within ±710, so the Exp argument stays
// within ±178 and a, a*x1 and the result are all normal: Frexp is the
// bit split above, and Ldexp only adds xe to the exponent field, which
// is (x & +Inf bits) - (1022 << 52) as a 64-bit integer add (1022 << 52
// is the bit pattern of 0.5).
TEXT ·pow0754(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ n+16(FP), CX
	XORQ BX, BX

ploop:
	CMPQ BX, CX
	JGE  pdone
	VMOVUPD   (SI)(BX*8), Y0
	VCMPPD    $0x1D, MINNORM, Y0, Y10
	VCMPPD    $1, POWMAX, Y0, Y11
	VANDPD    Y11, Y10, Y10
	VMOVMSKPD Y10, AX
	CMPQ      AX, $15
	JNE       pdone
	VMOVAPD   Y0, Y9
	LOG4
	VMULPD    MQUARTER, Y9, Y1
	EXP4
	VANDPD    MANT, Y0, Y2
	VORPD     HALF, Y2, Y2
	VMULPD    Y2, Y1, Y1
	VPAND     POSINF, Y0, Y2
	VPADDQ    Y2, Y1, Y1
	VPSUBQ    HALF, Y1, Y1
	VMOVUPD   Y1, (DI)(BX*8)
	ADDQ      $4, BX
	JMP       ploop

pdone:
	MOVQ BX, ret+24(FP)
	VZEROUPPER
	RET
