package main

import "time"

// hostRef times a fixed piece of work that shares no code with the program
// under test: a map-and-arithmetic loop that fits the L2 cache. It is a
// diagnostic and nothing else: no metric is scaled by it. It is taken before
// every timed round and reported as host.ref_ms, so that someone comparing
// the timings of two runs can see whether the host ran them at the same
// speed (on the VM this was built on it reads 5.6 ms when quiet and up to
// 10 ms, changing from one second to the next).
func hostRef() float64 {
	t0 := time.Now()
	m := make(map[int]int)
	sum := 0
	for i := 0; i < 300000; i++ {
		m[i%5000] += i
		sum += m[(i*7)%5000]
	}
	d := time.Since(t0)
	if sum == 0 {
		return 0 // never: the test keeps the loop from being optimised away
	}
	return ms(d)
}
