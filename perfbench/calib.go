package main

import "time"

// The host this benchmark was tuned on changes speed by 20–50% for seconds
// to minutes at a time, more than any bound could absorb. Every pass is
// therefore bracketed by a fixed reference kernel, and the pass's time
// metrics are scaled by refCalibSeconds ÷ the mean of the two kernel times:
// they are host seconds at the speed of a host on which the kernel takes
// refCalibSeconds. The kernel lives here, not in the simulator, so a change
// to the repository cannot speed it up or slow it down.

// refCalibSeconds is the kernel's typical time on the host named in
// README.md, so scaled times there read as host seconds.
const refCalibSeconds = 0.025

// calibSteps sizes the kernel to about refCalibSeconds on that host.
const calibSteps = 100_000

// calibrate runs the reference kernel and returns its host seconds. It does
// what the simulator spends its host time on: an unbuffered channel handoff
// between two goroutines, a binary heap of timestamps and map updates. It
// allocates only its fixed state, so it neither triggers nor waits for GC.
func calibrate() float64 {
	start := time.Now()
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	h := make(calibHeap, 0, 257)
	m := make(map[int]int, 4096)
	x := uint64(1)
	for i := 0; i < calibSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h.push(int(x % 1_000_000))
		if len(h) > 256 {
			h.pop()
		}
		m[int(x%4096)] += i
		if i%4 == 0 {
			ping <- i
			<-pong
		}
	}
	close(ping)
	for range pong {
	}
	return time.Since(start).Seconds()
}

// calibHeap is a binary min-heap of ints.
type calibHeap []int

func (h *calibHeap) push(v int) {
	*h = append(*h, v)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p] <= s[i] {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *calibHeap) pop() {
	s := *h
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1] < s[c] {
			c++
		}
		if s[i] <= s[c] {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
}
