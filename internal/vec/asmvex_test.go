package vec

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestAsmVEXClean holds vec_amd64.s to the VEX-only rule its header states:
//
//	(a) no instruction without the V prefix (the legacy-SSE encodings)
//	    names an X, Y or Z register, and
//	(b) every TEXT body that names a Y, Z or opmask (K) register executes
//	    VZEROUPPER before each of its RETs.
//
// Rule (a) is not style. Go assembles MOVQ AX, X3 to the legacy
// 66 REX.W 0F 6E form, and a legacy-SSE instruction executed while the
// upper ymm halves are dirty stalls on the merge: ~172 ns per instruction
// on the 2-core Sapphire Rapids Xeon (family 6, model 143) microVM the
// benchmarks run on, against 1.5 ns for the VEX VMOVQ. Each fused column
// kernel broadcasts its gap and bias constants after its first ymm write,
// so with MOVQ a 30-row column (~40 ns of arithmetic) cost 340-800 ns and
// serve_distinct lost more than half its qps. Do not turn a VMOVQ back
// into a MOVQ. Rule (b) keeps the dirty state from leaking into the Go
// code and runtime that run after the routine returns; a zmm write
// dirties that state just as a ymm write does, and an opmask names an
// AVX-512 body, held to the same rule.
//
// The check is a plain text scan, so it runs on every GOARCH; the
// fixtures prove each rule can fail.
func TestAsmVEXClean(t *testing.T) {
	src, err := os.ReadFile("vec_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range asmVEXViolations(string(src)) {
		t.Error("vec_amd64.s:", v)
	}

	fixtures := []struct{ name, src string }{
		{"legacy MOVQ to xmm", "TEXT ·f(SB), NOSPLIT, $0-8\n\tMOVQ AX, X3\n\tRET\n"},
		{"legacy MOVOU load", "TEXT ·f(SB), NOSPLIT, $0-8\n\tMOVOU (SI), X1\n\tRET\n"},
		{"legacy PXOR", "TEXT ·f(SB), NOSPLIT, $0-8\n\tPXOR X0, X0\n\tRET\n"},
		{"ymm body without VZEROUPPER", "TEXT ·f(SB), NOSPLIT, $0-8\n\tVPXOR Y0, Y0, Y0\n\tRET\n"},
		{"ymm write after VZEROUPPER", "TEXT ·f(SB), NOSPLIT, $0-8\n\tVZEROUPPER\n\tVMOVDQU (SI), Y0\n\tRET\n"},
		{"early RET before VZEROUPPER", "TEXT ·f(SB), NOSPLIT, $0-8\n\tVMOVDQU (SI), Y0\n\tJZ done\n\tRET\ndone:\n\tVZEROUPPER\n\tRET\n"},
		{"zmm body without VZEROUPPER", "TEXT ·f(SB), NOSPLIT, $0-8\n\tVBROADCASTI64X4 (R8), Z13\n\tVPERMB Z13, Z10, Z6\n\tVMOVDQU8 Z6, (DI)\n\tRET\n"},
		{"opmask body without VZEROUPPER", "TEXT ·f(SB), NOSPLIT, $0-8\n\tVPCMPB $6, X6, X8, K1\n\tKMOVQ K1, AX\n\tRET\n"},
		{"high zmm body without VZEROUPPER", "TEXT ·f(SB), NOSPLIT, $0-8\n\tVMOVDQU8 (DI), Z24\n\tRET\n"},
	}
	for _, f := range fixtures {
		if len(asmVEXViolations(f.src)) == 0 {
			t.Errorf("fixture %q: checker reported no violation", f.name)
		}
	}

	clean := "TEXT ·f(SB), NOSPLIT, $0-8\n" +
		"\tMOVQ c+0(FP), AX // scalar moves are fine\n" +
		"\tVMOVQ AX, X1\n\tVPBROADCASTB X1, Y1\n\tVZEROUPPER\n\tRET\n" +
		"TEXT ·g(SB), NOSPLIT, $0-8\n\tMOVQ AX, BX\n\tRET\n" +
		"TEXT ·h(SB), NOSPLIT, $0-8\n" +
		"\tVPBROADCASTB X1, Z1 // the EVEX forms of the zmm body\n" +
		"\tVMOVDQU8 (AX)(R11*1), Z10\n\tVBROADCASTI64X4 (R8), Z13\n\tVPERMB Z13, Z10, Z6\n" +
		"\tVMOVDQU8 Z6, (DI)\n\tVMOVDQA64 Z7, Z0\n" +
		"\tVPCMPB $6, Z6, Z8, K1 // the opmask forms\n\tVPBLENDMB Z8, Z6, K1, Z6\n" +
		"\tVPADDSB Z16, Z31, Z24 // the EVEX-only high registers\n\tVMOVDQU8 (DI)(R13*1), Z17\n" +
		"\tVPCMPB $6, Z24, Z17, K4\n\tVPBLENDMB Z17, Z24, K4, Z24\n\tVPCMPB $6, Z2, Z29, K7\n" +
		"\tVPMAXSB Z30, Z16, Z16\n\tVMOVDQU8 Z24, (DI)\n\tVZEROUPPER\n\tRET\n"
	if v := asmVEXViolations(clean); len(v) != 0 {
		t.Errorf("clean fixture flagged: %v", v)
	}
}

var (
	asmVecReg  = regexp.MustCompile(`\b[XYZ]([0-9]|[12][0-9]|3[01])\b`)
	asmWideReg = regexp.MustCompile(`\b([YZ]([0-9]|[12][0-9]|3[01])|K[0-7])\b`)
)

// asmVEXViolations scans Go assembly source for breaches of the two rules
// TestAsmVEXClean documents, one message per breach. Rule (b) is checked
// in text order: a RET passes only if a VZEROUPPER comes after the body's
// last ymm/zmm/opmask instruction above it.
func asmVEXViolations(src string) []string {
	var out []string
	fn := ""
	var wide, zeroed bool // body names a ymm/zmm register; upper state clean
	var rets []int        // text-order RETs of the current body lacking VZEROUPPER
	flush := func() {
		if wide {
			for _, ln := range rets {
				out = append(out, fmt.Sprintf("%s: line %d: RET without VZEROUPPER after its ymm code", fn, ln))
			}
		}
	}
	for i, line := range strings.Split(src, "\n") {
		if c := strings.Index(line, "//"); c >= 0 {
			line = line[:c]
		}
		for _, stmt := range strings.Split(line, ";") {
			fields := strings.Fields(stmt)
			if len(fields) == 0 || strings.HasSuffix(fields[0], ":") || strings.HasPrefix(fields[0], "#") {
				continue
			}
			op, operands := fields[0], strings.Join(fields[1:], " ")
			switch {
			case op == "TEXT":
				flush()
				fn, wide, zeroed, rets = strings.TrimSuffix(fields[1], ","), false, false, nil
				continue
			case op == "VZEROUPPER":
				zeroed = true
			case op == "RET":
				if !zeroed {
					rets = append(rets, i+1)
				}
				zeroed = false
			case asmWideReg.MatchString(operands):
				wide, zeroed = true, false
			}
			if !strings.HasPrefix(op, "V") && asmVecReg.MatchString(operands) {
				out = append(out, fmt.Sprintf("%s: line %d: legacy-SSE %s", fn, i+1, strings.TrimSpace(stmt)))
			}
		}
	}
	flush()
	return out
}
