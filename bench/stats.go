package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// samples collects per-operation durations in nanoseconds.
type samples []int64

func (s *samples) add(d time.Duration) { *s = append(*s, int64(d)) }

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile returns the nearest-rank q-quantile of a sorted sample (0 when
// empty).
func (s samples) quantile(q float64) int64 {
	if len(s) == 0 {
		return 0
	}
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum int64
	for _, v := range s {
		sum += v
	}
	return float64(sum) / float64(len(s))
}

func ms(ns int64) float64    { return float64(ns) / 1e6 }
func us(ns int64) float64    { return float64(ns) / 1e3 }
func usF(ns float64) float64 { return ns / 1e3 }
func perOp(n, ops uint64) float64 {
	if ops == 0 {
		return 0
	}
	return float64(n) / float64(ops)
}

// quartiles reproduces Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), which is what the driver uses for spreads.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return v[0], v[0], v[0]
	}
	at := func(i int) float64 {
		// position i*(n+1)/4, 1-based, clamped to the sample
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return v[j-1] + (v[j]-v[j-1])*delta
	}
	return at(1), at(2), at(3)
}

// peakRSSMB reads the process's high-water resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// resetPeakRSS restarts the kernel's high-water mark, so that a run which
// is not the first of its process reports its own peak.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
