package bench

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// clockTicks is Linux's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTicks = 100

// ProcCPU returns the user+system CPU time a process has used so far,
// from /proc/<pid>/stat.
func ProcCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat of %d: malformed", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat of %d: short", pid)
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat of %d: bad times", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// hostSteal returns the ticks the hypervisor stole from this VM's
// CPUs and the ticks of all kinds, summed over the CPUs, from the
// first line of /proc/stat (zeros where it cannot be read).
func hostSteal() [2]uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]uint64{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return [2]uint64{}
	}
	var out [2]uint64
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		if i < 8 { // guest time is already counted in user time
			out[1] += n
		}
		if i == 7 {
			out[0] = n
		}
	}
	return out
}

// SelfCPU returns the CPU time this process has used so far.
func SelfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// RSS reads a resident-set figure of a process from /proc/<pid>/status
// in bytes: field "VmRSS" (current) or "VmHWM" (peak).
func RSS(pid int, field string) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("%s of %d: %w", field, pid, err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("%s of %d: not found", field, pid)
}

// RSSSampler samples a process's current resident set in the
// background. The median of the samples is steadier than the peak,
// which depends on where garbage collections happen to fall.
type RSSSampler struct {
	stop, done chan struct{}
	paused     atomic.Bool
	samples    []float64 // MiB
}

// SampleRSS starts sampling pid's resident set every interval.
func SampleRSS(pid int, every time.Duration) *RSSSampler {
	s := &RSSSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			if !s.paused.Load() {
				if b, err := RSS(pid, "VmRSS"); err == nil {
					s.samples = append(s.samples, float64(b)/MiB)
				}
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// Pause stops taking samples until Resume.
func (s *RSSSampler) Pause() { s.paused.Store(true) }

// Resume takes samples again after Pause.
func (s *RSSSampler) Resume() { s.paused.Store(false) }

// Stop ends the sampling and returns the samples in MiB.
func (s *RSSSampler) Stop() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}
