package heterosw

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// validateSAM is a structural SAM validator: header shape, reference
// dictionary consistency, field counts, and — the part a golden-byte
// comparison cannot express — that every CIGAR is arithmetically
// consistent with its SEQ and stays inside its reference's declared
// length. It returns one error per violation so a failure names them all.
func validateSAM(text string) []error {
	var errs []error
	fail := func(line int, format string, args ...any) {
		errs = append(errs, fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...)))
	}
	refLen := make(map[string]int)
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "@HD\t") || !strings.Contains(lines[0], "VN:") {
		fail(1, "first line must be an @HD header with a VN tag, got %q", lines[0])
	}
	inHeader := true
	for i, line := range lines {
		no := i + 1
		if strings.HasPrefix(line, "@") {
			if !inHeader {
				fail(no, "header line after the first alignment record")
			}
			if strings.HasPrefix(line, "@SQ\t") {
				var sn string
				ln := -1
				for _, f := range strings.Split(line, "\t")[1:] {
					switch {
					case strings.HasPrefix(f, "SN:"):
						sn = f[3:]
					case strings.HasPrefix(f, "LN:"):
						ln, _ = strconv.Atoi(f[3:])
					}
				}
				if sn == "" || ln <= 0 {
					fail(no, "@SQ needs SN and positive LN: %q", line)
					continue
				}
				if _, dup := refLen[sn]; dup {
					fail(no, "duplicate @SQ %s", sn)
				}
				refLen[sn] = ln
			}
			continue
		}
		inHeader = false
		f := strings.Split(line, "\t")
		if len(f) < 11 {
			fail(no, "record has %d fields, want >= 11", len(f))
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			fail(no, "FLAG %q is not an integer", f[1])
		}
		rname, pos, cigar, seq := f[2], f[3], f[5], f[9]
		p, err := strconv.Atoi(pos)
		if err != nil || p < 0 {
			fail(no, "POS %q is not a non-negative integer", pos)
			continue
		}
		if mapq, err := strconv.Atoi(f[4]); err != nil || mapq < 0 || mapq > 255 {
			fail(no, "MAPQ %q out of range", f[4])
		}
		ln, known := refLen[rname]
		if rname != "*" && !known {
			fail(no, "RNAME %s has no @SQ header", rname)
		}
		if cigar == "*" {
			continue
		}
		qlen, rlen, ok := cigarLengths(cigar)
		if !ok {
			fail(no, "malformed CIGAR %q", cigar)
			continue
		}
		if seq != "*" && qlen != len(seq) {
			fail(no, "CIGAR %s consumes %d query bases but SEQ has %d", cigar, qlen, len(seq))
		}
		if known && p+rlen-1 > ln {
			fail(no, "alignment [%d, %d] overruns %s (LN %d)", p, p+rlen-1, rname, ln)
		}
	}
	return errs
}

// cigarLengths sums the query-consuming (M I S = X) and
// reference-consuming (M D N = X) op lengths of a CIGAR string.
func cigarLengths(cigar string) (qlen, rlen int, ok bool) {
	n := 0
	sawOp := false
	for i := 0; i < len(cigar); i++ {
		c := cigar[i]
		if c >= '0' && c <= '9' {
			n = n*10 + int(c-'0')
			continue
		}
		if n == 0 {
			return 0, 0, false // zero-length or missing count
		}
		switch c {
		case 'M', '=', 'X':
			qlen += n
			rlen += n
		case 'I', 'S':
			qlen += n
		case 'D', 'N':
			rlen += n
		case 'H', 'P':
			// consume neither
		default:
			return 0, 0, false
		}
		n = 0
		sawOp = true
	}
	return qlen, rlen, sawOp && n == 0
}

// TestCigarLengths anchors the validator's own arithmetic.
func TestCigarLengths(t *testing.T) {
	cases := []struct {
		cigar      string
		qlen, rlen int
		ok         bool
	}{
		{"100M", 100, 100, true},
		{"1S99M", 100, 99, true},
		{"5M2D3M", 8, 10, true},
		{"5M2I3M", 10, 8, true},
		{"4S10M3S", 17, 10, true},
		{"10H5M", 5, 5, true},
		{"M", 0, 0, false},
		{"5", 0, 0, false},
		{"3Q", 0, 0, false},
		{"0M", 0, 0, false},
	}
	for _, tc := range cases {
		q, r, ok := cigarLengths(tc.cigar)
		if q != tc.qlen || r != tc.rlen || ok != tc.ok {
			t.Errorf("cigarLengths(%q) = (%d, %d, %t), want (%d, %d, %t)",
				tc.cigar, q, r, ok, tc.qlen, tc.rlen, tc.ok)
		}
	}
}

// TestValidateSAMCatchesDamage proves the validator is not vacuous: each
// deliberately damaged document must be rejected.
func TestValidateSAMCatchesDamage(t *testing.T) {
	good := "@HD\tVN:1.6\tSO:unknown\n" +
		"@SQ\tSN:R1\tLN:50\n" +
		"q\t0\tR1\t10\t255\t5M\t*\t0\t0\tAAAAA\t*\tAS:i:25\n"
	if errs := validateSAM(good); len(errs) != 0 {
		t.Fatalf("valid document rejected: %v", errs)
	}
	bad := map[string]string{
		"no @HD":           strings.Replace(good, "@HD\tVN:1.6\tSO:unknown", "@XX\tVN:1.6", 1),
		"unknown RNAME":    strings.Replace(good, "\tR1\t10", "\tR9\t10", 1),
		"CIGAR/SEQ skew":   strings.Replace(good, "5M", "6M", 1),
		"overruns LN":      strings.Replace(good, "\t10\t255", "\t47\t255", 1),
		"malformed CIGAR":  strings.Replace(good, "5M", "5Z", 1),
		"truncated record": strings.Replace(good, "\t*\tAS:i:25\n", "\n", 1),
	}
	for name, doc := range bad {
		if errs := validateSAM(doc); len(errs) == 0 {
			t.Errorf("%s: damaged document passed validation", name)
		}
	}
}

// TestGoldenSAMStructure runs the structural validator over every golden
// SAM on disk, and pins the FLAG fix: a protein-vs-translated-DNA hit is
// not a reverse-complemented nucleotide read, so FLAG 0x10 must never be
// set — the frame sign lives in ZF:i alone.
func TestGoldenSAMStructure(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_dna_translated.sam")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range validateSAM(string(raw)) {
		t.Error(e)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "@") {
			continue
		}
		f := strings.Split(line, "\t")
		if f[1] != "0" {
			t.Errorf("record %s: FLAG %s, want 0 (strand belongs in ZF:i only)", f[0], f[1])
		}
		if !strings.Contains(line, "ZF:i:-1") {
			t.Errorf("record %s: reverse-frame hit lost its ZF:i strand tag", f[0])
		}
	}
}

// TestFreshSAMStructure validates freshly rendered SAM output — both the
// reverse-frame translated search and a plain protein search — so the
// validator guards the writer itself, not just the checked-in goldens.
func TestFreshSAMStructure(t *testing.T) {
	db, query, cl := goldenTranslatedSetup(t)
	res, err := cl.Do(context.Background(), Request{Query: query, Translate: true, Report: ReportOptions{Alignments: true, EValues: true, TopK: goldenDNATopK}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFormat(&buf, "sam", query, db, res, 60); err != nil {
		t.Fatal(err)
	}
	for _, e := range validateSAM(buf.String()) {
		t.Errorf("translated SAM: %v", e)
	}

	pdb, pq, pcl := goldenSetup(t)
	pres, err := pcl.Search(pq, ReportOptions{Alignments: true, EValues: true, TopK: goldenDNATopK})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteFormat(&buf, "sam", pq, pdb, pres, 60); err != nil {
		t.Fatal(err)
	}
	for _, e := range validateSAM(buf.String()) {
		t.Errorf("protein SAM: %v", e)
	}
}
