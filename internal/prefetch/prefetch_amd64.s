#include "textflag.h"

// func line(addr uintptr)
TEXT ·line(SB), NOSPLIT, $0-8
	MOVQ addr+0(FP), AX
	PREFETCHT0 (AX)
	RET
