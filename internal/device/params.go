package device

// Calibrated device instances.
//
// Mechanistic fields (cores, threads, frequency, lane counts, cache sizes,
// PCIe generation, TDP) are taken from the paper's Section V.A and public
// processor specifications. Fields marked (fitted) were tuned once so that
// the simulated GCUPS of the synthetic Swiss-Prot workload reproduces the
// numbers the paper states in its text:
//
//	Xeon:  intrinsic-SP 30.4 GCUPS @ 32 threads; parallel efficiency
//	       99%/88%/70% at 4/16/32 threads; intrinsic-QP efficiency 73% @ 16;
//	       simd-SP 25.1 and intrinsic-SP 32 GCUPS on the longest queries.
//	Phi:   simd-QP 13.6, simd-SP 14.5, intrinsic-QP 27.1, intrinsic-SP
//	       34.9 GCUPS @ 240 threads.
//	Hybrid: 62.6 GCUPS at a ~55% Phi share.
//
// The calibration is locked by internal/model tests; if you change a
// constant here, those tests tell you which paper number you broke.

// Xeon returns the model of the host: 2x Intel Xeon E5-2670 (Sandy Bridge
// EP, 8 cores each, 2.60 GHz, HyperThreading), 256-bit vectors = 16
// 16-bit lanes, no hardware gather.
func Xeon() *Model {
	return &Model{
		Name:  "2x Intel Xeon E5-2670 (16 cores, 32 threads, 256-bit SIMD)",
		Short: "xeon",

		Cores:          16,
		ThreadsPerCore: 2,
		FreqHz:         2.6e9,
		Lanes:          16,

		SMT:             []float64{1.0, 1.60}, // (fitted) HT gain on latency-bound integer DP
		ContentionSlope: 0.008,                // (fitted) uncore/LLC/bandwidth pressure

		ScalarIterCycles:    30,   // (fitted) no-vec ~1.9 GCUPS @ 32T
		GuidedIterCycles:    37,   // (fitted) simd-SP ~ 0.78x intrinsic-SP
		IntrinsicIterCycles: 29.2, // (fitted) intrinsic-SP 30.4 GCUPS @ 32T
		GatherGuided:        26,   // (fitted) compiler scalarises the QP lookup
		GatherIntrinsic:     7,    // (fitted) shuffle/insert emulation of gather
		GatherContention:    0.07, // (fitted) QP efficiency 73% @ 16T

		SPBuildCycles:  50,   // (fitted) 25 lane-vector stores per column
		ColCycles:      120,  // (fitted) Xeon is nearly query-length flat (Fig. 4)
		BoundaryCycles: 40,   // (fitted) blocked boundary-row traffic
		GroupCycles:    1200, // (fitted)
		SeqCycles:      100,  // (fitted)
		DispatchCycles: 250,  // (fitted) omp dynamic dequeue

		IntraCellCycles: 3.0, // (fitted) anti-diagonal kernel for long sequences

		CachePerCore:     512 << 10, // 256 KiB L2 + 1.25 MiB L3 slice, derated for sharing
		MemPenaltyCycles: 26,        // (fitted) Fig. 7 non-blocked degradation

		RegionSeconds: 15e-6,

		TDPWatts: 230, // 2 x 115 W (E5-2670 specification)
	}
}

// Phi returns the model of the coprocessor: Intel Xeon Phi (KNC), 60 cores
// at 1.053 GHz, 4 hardware threads per core, 512-bit vectors = 32 16-bit
// lanes, hardware gather, 512 KiB L2 per core, PCIe Gen2 offload link.
func Phi() *Model {
	return &Model{
		Name:  "Intel Xeon Phi (60 cores, 240 threads, 512-bit SIMD)",
		Short: "phi",

		Cores:          60,
		ThreadsPerCore: 4,
		FreqHz:         1.053e9,
		Lanes:          32,

		SMT:             []float64{0.50, 0.80, 0.92, 1.00}, // in-order core needs 3-4 threads
		ContentionSlope: 0.0005,                            // (fitted) ring interconnect scales well

		ScalarIterCycles:    38,   // (fitted) in-order scalar DP is very slow
		GuidedIterCycles:    130,  // (fitted) simd-SP 14.5 GCUPS @ 240T
		IntrinsicIterCycles: 50.4, // (fitted) intrinsic-SP 34.9 GCUPS @ 240T
		GatherGuided:        9,    // (fitted) simd-QP 13.6 GCUPS @ 240T
		GatherIntrinsic:     16,   // (fitted) vgather is available but not free
		GatherContention:    0,

		SPBuildCycles:  80,   // (fitted)
		ColCycles:      1900, // (fitted) drives the Fig. 6 query-length ramp
		BoundaryCycles: 70,   // (fitted)
		GroupCycles:    4000, // (fitted)
		SeqCycles:      300,  // (fitted)
		DispatchCycles: 500,  // (fitted)

		IntraCellCycles: 3.6, // (fitted) anti-diagonal kernel for long sequences

		CachePerCore:     512 << 10, // 512 KiB L2, no L3
		MemPenaltyCycles: 60,        // (fitted) GDDR5 miss penalty, Fig. 7

		RegionSeconds: 40e-6,

		OffloadRequired: true,
		PCIeBytesPerSec: 6.0e9, // PCIe Gen2 x16 effective
		PCIeLatencySec:  1.2e-4,

		TDPWatts: 240, // as stated in the paper's Section V.C.3
	}
}

// Devices returns the calibrated models keyed by their Short name.
func Devices() map[string]*Model {
	return map[string]*Model{"xeon": Xeon(), "phi": Phi()}
}
