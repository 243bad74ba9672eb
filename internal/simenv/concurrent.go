package simenv

import (
	"fmt"
	"time"

	"github.com/memadapt/masort/internal/core"
)

// ConcurrentResult reports a multiprogramming experiment: Workers sorts
// running concurrently over a shared buffer pool (bufmgr.SharedPool) until
// NumSorts complete in total.
type ConcurrentResult struct {
	Sorts        []core.SortStats
	MeanResponse time.Duration
	// Throughput is completed sorts per simulated hour — the
	// system-utilization metric the paper's introduction argues about.
	Throughput  float64
	SimDuration time.Duration
	CPUBusy     time.Duration
	DiskBusy    time.Duration
	Rejected    int
}

// RunConcurrent executes cfg.NumSorts sorts with `workers` operators running
// concurrently, sharing memory under the equal-share policy. Competing
// request streams (cfg.Fluct) contend against the whole pool. This extends
// the paper's single-operator model to the multiprogramming setting its
// introduction motivates.
func RunConcurrent(cfg Config, workers int) (*ConcurrentResult, error) {
	workers = max(workers, 1)
	if cfg.NumSorts <= 0 {
		cfg.NumSorts = workers
	}
	cfg.Join = false // sort-only
	sys, err := newSystem(cfg, workers, "sharedload")
	if err != nil {
		return nil, err
	}
	suffixes := make([]string, workers)
	for w := range suffixes {
		suffixes[w] = fmt.Sprintf("-%d", w)
	}
	res := &ConcurrentResult{}
	var total time.Duration
	err = sys.run(suffixes, func(st core.JoinStats) {
		res.Sorts = append(res.Sorts, st.SortStats)
		total += st.Response
	})
	if err != nil {
		return nil, err
	}
	res.SimDuration = sys.s.Now()
	res.CPUBusy = sys.cpu.BusyTime()
	for _, d := range sys.disks {
		res.DiskBusy += d.Stats.BusyTime
	}
	res.Rejected = sys.pool.Rejected
	if n := len(res.Sorts); n > 0 {
		res.MeanResponse = total / time.Duration(n)
	}
	if res.SimDuration > 0 {
		res.Throughput = float64(len(res.Sorts)) / res.SimDuration.Hours()
	}
	return res, nil
}
