package sched

import (
	"sync/atomic"
	"testing"
)

func TestParallelVisitsAllOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 64} {
		n := 1000
		visited := make([]atomic.Int32, n)
		Parallel(n, workers, func(i, worker int) {
			visited[i].Add(1)
		})
		for i := range visited {
			if visited[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, visited[i].Load())
			}
		}
	}
}

func TestParallelWorkerIDsInRange(t *testing.T) {
	var bad atomic.Int32
	Parallel(500, 7, func(i, worker int) {
		if worker < 0 || worker >= 7 {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatalf("%d out-of-range worker ids", bad.Load())
	}
}

func TestParallelZero(t *testing.T) {
	called := false
	Parallel(0, 4, func(i, worker int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}
