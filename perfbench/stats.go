package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of samples (0 when empty).
// It sorts samples in place.
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(math.Ceil(q * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	return samples[rank-1]
}

// ms and us convert a duration to fractional milliseconds/microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the median of xs (0 when empty), leaving xs unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// usage is the process's resource use as getrusage reports it.
type usage struct {
	cpu    time.Duration // user + system CPU time
	maxRSS int64         // peak resident set, KiB on Linux
}

func readUsage() usage {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSS: ru.Maxrss,
	}
}
