package vec

// Fused DP kernels. At 16–64 lanes the call and bounds-check overhead of
// one call per vector instruction would dwarf the arithmetic, so the
// inter-task kernels in internal/core advance the DP through these fused
// entry points. The 16-bit rung's column steps process one database column
// across every row of the current query tile per call, keeping F, the
// diagonal vector and the running-maximum tracker register-resident for
// the whole column; the byte rung's Sweep8QP goes further and processes a
// whole query tile across every column of a lane group per call, so they
// stay in registers from the first column to the last. The portable
// generics below are the semantic definition; vec_amd64.s implements the
// same loops over real 256-bit registers, and Sweep8QP's over 512-bit ones
// on the avx2+vbmi tier.
//
// Layout contract shared by the kernels:
//
//   - h and e hold the tile's H and E state for rows query rows, row ri at
//     h[ri*lanes : (ri+1)*lanes]. On entry h carries the previous column's
//     values (the "up" cells); on return, the last column's. Callers whose
//     slabs include a boundary row 0 pass h[lanes:].
//   - f, diag and maxv are lanes-wide vectors carried across columns: the
//     vertical-gap state entering each row, the diagonal H value entering
//     row 0, and the running score maximum. Sweep8QP takes only maxv: F
//     and the diagonal enter each column from its seam arguments.
//   - qr is the gap-open+extend penalty and r the extend penalty, both
//     non-negative; the 16-bit form relies on qr <= 16384 (enforced by
//     core.Params.Validate) so gap arithmetic cannot wrap below MinI16, and
//     the signed byte form on qr <= MaxI8.
//
// The SP forms read the column's score profile (row stride = lanes) with
// the row selected by the query residue seq[ri]; the QP form reads the
// query profile (row stride = stride, row ri at qp[ri*stride:]) indexed by
// the column residues. The byte rung of core's precision ladder runs
// Sweep8QP only, in signed lanes (I8): a profile row of up to 32 letters
// fits one register, so the lookup is an in-register permute with no
// per-column table to build. The 16-bit rung runs StepCol16SP over rows
// BuildRows16 fills. The native Sweep8QP and BuildRows16 paths read a few
// bytes past the last table row; they dispatch only when the table's
// backing array has the spare capacity (internal/profile over-allocates
// its tables for exactly this), and fall back to the portable loops
// otherwise.

// StepCol16SP advances one database column of the 16-bit score-profile
// kernel. score is the column's score-row table (stride lanes) and seq the
// tile's query residues, so row ri scores with
// score[seq[ri]*lanes : ...].
func StepCol16SP(h, e, f, diag, maxv I16, score []int16, seq []uint8, rows, lanes int, qr, r int16) {
	if rows <= 0 {
		return
	}
	if native16(lanes) {
		stepCol16SP(&h[0], &e[0], &f[0], &diag[0], &maxv[0], &score[0], &seq[0], rows, lanes, int(qr), int(r))
		return
	}
	stepCol16SPGeneric(h, e, f, diag, maxv, score, seq, rows, lanes, qr, r)
}

//sw:hotpath
func stepCol16SPGeneric(h, e, f, diag, maxv I16, score []int16, seq []uint8, rows, lanes int, qr, r int16) {
	for ri := 0; ri < rows; ri++ {
		hrow := h[ri*lanes : (ri+1)*lanes]
		erow := e[ri*lanes : (ri+1)*lanes]
		sv := score[int(seq[ri])*lanes:]
		for l := 0; l < lanes; l++ {
			up := hrow[l]
			hv := int32(diag[l]) + int32(sv[l])
			if hv > MaxI16 {
				hv = MaxI16
			}
			// The low rail is unreachable: diag >= 0 and scores are
			// bounded by the matrix range (>= profile.PadScore).
			ev, fv := erow[l], f[l]
			if int32(ev) > hv {
				hv = int32(ev)
			}
			if int32(fv) > hv {
				hv = int32(fv)
			}
			if hv < 0 {
				hv = 0
			}
			h16 := int16(hv)
			if h16 > maxv[l] {
				maxv[l] = h16
			}
			uv := hv - int32(qr) // no saturation: 0 <= hv <= MaxI16, qr <= 16384
			e2 := int32(ev) - int32(r)
			if e2 < MinI16 {
				e2 = MinI16
			}
			if uv > e2 {
				e2 = uv
			}
			erow[l] = int16(e2)
			f2 := int32(fv) - int32(r)
			if f2 < MinI16 {
				f2 = MinI16
			}
			if uv > f2 {
				f2 = uv
			}
			f[l] = int16(f2)
			diag[l] = up
			hrow[l] = h16
		}
	}
}

// StepCol8SP advances one database column of the 8-bit biased
// score-profile kernel: H/E/F are true non-negative cell values clamped at
// zero, scores are stored biased (score+bias), and every subtraction
// saturates at the unsigned floor. bias, qr and r are pre-clamped to the
// byte range by the caller (a penalty >= 255 zeroes any byte lane, so
// clamping is exact).
//
// No kernel in this repository calls it any more (the byte rung looks its
// scores up with Sweep8QP); it stays exported and unchanged because
// bench/ladder times it as the vec.stepcol8sp_gcells_s rung. ROADMAP item 1
// re-points that rung and deletes this.
func StepCol8SP(h, e, f, diag, maxv U8, score []uint8, seq []uint8, rows, lanes int, bias, qr, r uint8) {
	if rows <= 0 {
		return
	}
	if native8(lanes) {
		stepCol8SP(&h[0], &e[0], &f[0], &diag[0], &maxv[0], &score[0], &seq[0], rows, lanes, int(bias), int(qr), int(r))
		return
	}
	stepCol8SPGeneric(h, e, f, diag, maxv, score, seq, rows, lanes, bias, qr, r)
}

//sw:hotpath
func stepCol8SPGeneric(h, e, f, diag, maxv U8, score []uint8, seq []uint8, rows, lanes int, bias, qr, r uint8) {
	for ri := 0; ri < rows; ri++ {
		hrow := h[ri*lanes : (ri+1)*lanes]
		erow := e[ri*lanes : (ri+1)*lanes]
		sv := score[int(seq[ri])*lanes:]
		for l := 0; l < lanes; l++ {
			up := hrow[l]
			hv := int32(diag[l]) + int32(sv[l])
			if hv > MaxU8 {
				hv = MaxU8 // vpaddusb clip: the lane will escalate
			}
			hv -= int32(bias)
			if hv < 0 {
				hv = 0
			}
			ev, fv := erow[l], f[l]
			if int32(ev) > hv {
				hv = int32(ev)
			}
			if int32(fv) > hv {
				hv = int32(fv)
			}
			h8 := uint8(hv)
			if h8 > maxv[l] {
				maxv[l] = h8
			}
			uv := hv - int32(qr)
			if uv < 0 {
				uv = 0
			}
			e2 := int32(ev) - int32(r)
			if e2 < 0 {
				e2 = 0
			}
			if uv > e2 {
				e2 = uv
			}
			erow[l] = uint8(e2)
			f2 := int32(fv) - int32(r)
			if f2 < 0 {
				f2 = 0
			}
			if uv > f2 {
				f2 = uv
			}
			f[l] = uint8(f2)
			diag[l] = up
			hrow[l] = h8
		}
	}
}

// Sweep8QP advances one query tile of the ladder's signed byte kernel
// across ncols database columns: the whole column loop of a lane group in
// one call, so F, the diagonal and the score tracker stay in registers
// from the first column to the last and the call cost amortises over
// ncols x rows x lanes cells. h, e and maxv hold cell values offset by
// -128 (see I8): h and e are the tile's H and E state as in the column
// steps, which the caller fills with the floor, MinI8, before the tile's
// first column; maxv is the running maximum. cols holds the columns'
// residues interleaved, column j's lanes at cols[j*lanes:(j+1)*lanes], and
// qp the tile's query-profile rows of plain substitution scores, row ri at
// qp[ri*stride:]; a score of MinI8 (the profile's pad) can never raise a
// lane's maximum.
//
// A query of several tiles is swept tile by tile from the top. hb and fb
// carry H and F across the seam below a tile, column j at
// hb[j*lanes:(j+1)*lanes]: a tile that is not the first reads F entering
// its first row from fb, and from hb the H of the row above it, which
// becomes the next column's diagonal; a tile that is not the last then
// overwrites both with its own last row's H and the F leaving it. On the
// first tile F and the diagonal enter every column at the floor (row 0 of
// the matrix is zero), and the diagonal entering column 0 is the floor on
// every tile. A query of one tile (first and last) passes nil hb and fb.
//
// Per cell: one signed saturating add of the score, whose MinI8 floor is
// the clamp at zero; the maximum with E and F; the tracker update; and E
// and F decayed by signed saturating subtracts of r and of qr from H,
// floored at MinI8 again. qr and r must lie in [0, MaxI8]; core starts a
// search whose penalties exceed that at the 16-bit rung.
//
// The native paths run the columns in pairs: each row loads its profile
// row, H and E once for two columns, passes them through the left column
// and then the right in registers (the left column's new H is the right
// column's next diagonal, its E' the right column's E) and stores H and E
// once. Each column of a pair keeps its own F and its own tracker, merged
// once per strip; an odd last column runs a one-column loop. They replace
// the per-lane gather with an in-register table lookup (profile rows fit
// one 32-byte register when stride <= 32): on the avx2+vbmi tier, at lane
// counts that are multiples of 64, one vpermb per 64-lane zmm strip;
// otherwise two vpshufb over the row's 16-byte halves per 32-lane ymm
// strip, blended. Both read 32 bytes from each row start and require
// stride <= 32, every residue in cols below stride, and
// cap(qp) >= (rows-1)*stride+32, falling back to the portable loop
// otherwise; neither reads or writes a byte of cols, hb or fb past column
// ncols-1.
func Sweep8QP(h, e, hb, fb, maxv I8, qp []int8, stride int, cols []uint8, ncols, rows, lanes int, qr, r int8, first, last bool) {
	if rows <= 0 || ncols <= 0 {
		return
	}
	// The native bodies index what the portable one would: check it here.
	_, _, _, _ = h[rows*lanes-1], e[rows*lanes-1], maxv[lanes-1], cols[ncols*lanes-1]
	var hp, fp *int8
	if !first || !last {
		_, _ = hb[ncols*lanes-1], fb[ncols*lanes-1]
		hp, fp = &hb[0], &fb[0]
	}
	if native8(lanes) && stride <= 32 && cap(qp) >= (rows-1)*stride+32 {
		if zmm8(lanes) {
			sweep8QPVBMI(&h[0], &e[0], hp, fp, &maxv[0], &qp[0], stride, &cols[0], ncols, rows, lanes, int(qr), int(r), first, last)
		} else {
			sweep8QP(&h[0], &e[0], hp, fp, &maxv[0], &qp[0], stride, &cols[0], ncols, rows, lanes, int(qr), int(r), first, last)
		}
		return
	}
	sweep8QPGeneric(h, e, hb, fb, maxv, qp, stride, cols, ncols, rows, lanes, qr, r, first, last)
}

// sweepStrip is the widest lane strip the portable sweep carries F and the
// diagonal for at once: they live on its stack, so it allocates nothing.
const sweepStrip = 64

// sweep8QPGeneric is the portable sweep: per strip of lanes, the generic
// column step once per column, with the seam loads and stores around it.
//
//sw:hotpath
func sweep8QPGeneric(h, e, hb, fb, maxv I8, qp []int8, stride int, cols []uint8, ncols, rows, lanes int, qr, r int8, first, last bool) {
	var fs, ds, ns [sweepStrip]int8
	for off := 0; off < lanes; off += sweepStrip {
		w := min(sweepStrip, lanes-off)
		f, diag, next := I8(fs[:w]), I8(ds[:w]), I8(ns[:w])
		set1I8Generic(diag, MinI8)
		for j := 0; j < ncols; j++ {
			at := j*lanes + off
			if first {
				set1I8Generic(f, MinI8)
			} else {
				copy(f, fb[at:])
				copy(next, hb[at:])
			}
			stepCol8QPGeneric(h[off:], e[off:], f, diag, maxv[off:off+w], qp, stride, cols[at:at+w], rows, lanes, qr, r)
			if !last {
				copy(hb[at:at+w], h[(rows-1)*lanes+off:])
				copy(fb[at:at+w], f)
			}
			if first {
				set1I8Generic(diag, MinI8)
			} else {
				copy(diag, next)
			}
		}
	}
}

// stepCol8QPGeneric advances one database column across rows query rows,
// for the len(col) lanes whose residues col holds: the byte rung's cell
// semantics, which the portable sweep loops and the tests replay. Row ri's
// H and E start at h[ri*lanes] and e[ri*lanes]; f, diag and maxv are
// len(col) wide and carried across columns: the vertical-gap state
// entering each row, the diagonal H value entering row 0, and the tracker.
//
//sw:hotpath
func stepCol8QPGeneric(h, e, f, diag, maxv I8, qp []int8, stride int, col []uint8, rows, lanes int, qr, r int8) {
	w := len(col)
	for ri := 0; ri < rows; ri++ {
		hrow := h[ri*lanes : ri*lanes+w]
		erow := e[ri*lanes : ri*lanes+w]
		row := qp[ri*stride : ri*stride+stride]
		for l, c := range col {
			up := hrow[l]
			hv := int32(diag[l]) + int32(row[c])
			if hv > MaxI8 {
				hv = MaxI8 // vpaddsb clip: the lane will escalate
			}
			if hv < MinI8 {
				hv = MinI8 // the clamp at zero
			}
			ev, fv := int32(erow[l]), int32(f[l])
			if ev > hv {
				hv = ev
			}
			if fv > hv {
				hv = fv
			}
			h8 := int8(hv)
			if h8 > maxv[l] {
				maxv[l] = h8
			}
			// The subtracts only floor (hv <= MaxI8 and 0 <= qr, r), and
			// uv >= MinI8 floors E and F too.
			uv := hv - int32(qr)
			if uv < MinI8 {
				uv = MinI8
			}
			e2 := ev - int32(r)
			if uv > e2 {
				e2 = uv
			}
			erow[l] = int8(e2)
			f2 := fv - int32(r)
			if uv > f2 {
				f2 = uv
			}
			f[l] = int8(f2)
			diag[l] = up
			hrow[l] = h8
		}
	}
}

// BuildRows16 fills a score-profile row table from a pad-extended
// substitution table: dst[e*lanes+l] = table[e*stride+idx[l]] for every
// residue row e in [0, nrows). The native path gathers with vpgatherdd
// (dword loads, one element of over-read) and requires
// cap(table) >= nrows*stride+1.
func BuildRows16(dst, table []int16, idx []uint8, nrows, lanes, stride int) {
	if native16(lanes) && cap(table) >= nrows*stride+1 {
		buildRows16(&dst[0], &table[0], &idx[0], nrows, lanes, stride)
		return
	}
	buildRows16Generic(dst, table, idx, nrows, lanes, stride)
}

//sw:hotpath
func buildRows16Generic(dst, table []int16, idx []uint8, nrows, lanes, stride int) {
	// Walk lane-major: each lane copies one strided column of the table,
	// the transposition the real SP code performs with vector inserts.
	for l, d := range idx[:lanes] {
		src := table[int(d):]
		for e := 0; e < nrows; e++ {
			dst[e*lanes+l] = src[e*stride]
		}
	}
}
