package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. It sleeps the OS thread in nanosleep rather
// than in the Go timer: on an idle runtime the timer wakes through
// epoll's millisecond timeout, which made the open-loop generator send
// about half a millisecond late on average, more than a cache hit takes.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if syscall.Nanosleep(&ts, nil) == nil {
			return
		}
	}
}
