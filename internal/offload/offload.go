// Package offload models the Intel offload runtime the paper drives with
// #pragma offload target(mic) in Algorithms 1 and 2: explicit in/out data
// transfers over the PCIe link, and the byte-level sizing of what a
// Smith-Waterman database search actually ships to the coprocessor. It is
// part of the device model: RegionSeconds prices a region over the device's
// PCIe link, and nothing here executes.
package offload

import (
	"heterosw/internal/device"
)

// Transfer sizing. The offload in Algorithm 2 ships the query, the
// substitution matrix and the device's database partition in, and the
// similarity scores out.
const (
	perSequenceMetaBytes = 16 // length + offset bookkeeping per sequence
	matrixBytes          = 25 * 25 * 2
	perScoreBytes        = 8 // score + sequence index
)

// DatabaseBytes returns the size of a database partition transfer: one byte
// per residue plus per-sequence metadata.
func DatabaseBytes(residues int64, sequences int) int64 {
	return residues + int64(sequences)*perSequenceMetaBytes
}

// QueryBytes returns the size of the query-side transfer: the encoded
// query, its precomputed query profile and the substitution matrix.
func QueryBytes(queryLen int) int64 {
	return int64(queryLen) + int64(queryLen)*25*2 + matrixBytes
}

// ScoreBytes returns the size of the out transfer of similarity scores.
func ScoreBytes(sequences int) int64 {
	return int64(sequences) * perScoreBytes
}

// RegionSeconds returns the simulated wall time of one offload region on
// the target device: transfer in, compute, transfer out, with the link
// latency charged per transfer direction. For host devices (no offload)
// it is just the compute time.
func RegionSeconds(m *device.Model, inBytes, outBytes int64, computeSeconds float64) float64 {
	return m.TransferSeconds(inBytes) + computeSeconds + m.TransferSeconds(outBytes)
}
