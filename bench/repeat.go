package main

// Noise control: -repeat N runs each selected workload end to end on N
// consecutive seeds and records how far the runs spread, in the terms the
// bounds in BENCHMARK.json are set in.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// spreadStats summarises one metric of one workload over the repeat runs.
type spreadStats struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// IQRShare is (Q3-Q1)/median, the spread the driver holds against the
	// metric's bound; MaxDeviation the largest |value-median|/median.
	IQRShare     float64 `json:"iqr_share"`
	MaxDeviation float64 `json:"max_deviation"`
}

// quartiles matches Python's statistics.quantiles(values, n=4).
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	m := len(x)
	if m < 2 {
		return x[0], x[0], x[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func summarise(unit string, values []float64) spreadStats {
	s := spreadStats{Unit: unit, Values: values, Median: median(values)}
	s.Q1, _, s.Q3 = quartiles(values)
	s.IQRShare = (s.Q3 - s.Q1) / s.Median
	for _, v := range values {
		s.MaxDeviation = math.Max(s.MaxDeviation, math.Abs(v-s.Median)/s.Median)
	}
	return s
}

// baseline is the -repeat report.
type baseline struct {
	Seeds     []uint64                          `json:"seeds"`
	Seconds   float64                           `json:"seconds"`
	Host      hostInfo                          `json:"host"`
	Workloads map[string]map[string]spreadStats `json:"workloads"`
}

type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	VecBackend string `json:"vec_backend"`
}

// repeat writes <out>/baseline.json and prints, as its last line, the
// medians in the form bench/history.jsonl collects.
func (b *bench) repeat(ctx context.Context) error {
	base := baseline{
		Seconds:   b.cfg.seconds,
		Host:      hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()},
		Workloads: make(map[string]map[string]spreadStats),
	}
	values := make(map[string]map[string][]float64)
	for i := 0; i < b.cfg.repeat; i++ {
		seed := b.cfg.seed + uint64(i)
		base.Seeds = append(base.Seeds, seed)
		for _, w := range b.cfg.workloads {
			m, err := b.endToEnd(ctx, w, seed)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			if !b.report(w, endToEndMetrics, m) {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, errIncorrect)
			}
			if values[w.name] == nil {
				values[w.name] = make(map[string][]float64)
			}
			for _, d := range endToEndMetrics {
				values[w.name][d.name] = append(values[w.name][d.name], m.metrics[d.name])
			}
			base.Host.VecBackend = m.vecBackend
		}
	}
	medians := make(map[string]map[string]float64)
	for _, w := range b.cfg.workloads {
		base.Workloads[w.name] = make(map[string]spreadStats)
		medians[w.name] = make(map[string]float64)
		for _, d := range endToEndMetrics {
			s := summarise(d.unit, values[w.name][d.name])
			base.Workloads[w.name][d.name] = s
			medians[w.name][d.name] = s.Median
			fmt.Fprintf(b.w, "# %-14s %-12s median %12.6g  iqr %5.1f%%  max deviation %5.1f%%\n",
				w.name, d.name, s.Median, 100*s.IQRShare, 100*s.MaxDeviation)
		}
	}
	out, err := json.MarshalIndent(base, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(b.cfg.out, "baseline.json")
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(b.w, "# wrote %s\n", path)
	line, err := json.Marshal(struct {
		Commit  string                        `json:"commit"`
		Host    hostInfo                      `json:"host"`
		Medians map[string]map[string]float64 `json:"medians"`
	}{"", base.Host, medians})
	if err != nil {
		return err
	}
	fmt.Fprintln(b.w, string(line))
	return nil
}
