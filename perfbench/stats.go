package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// cpuTime returns the CPU time this process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB returns the process's peak resident set size (VmHWM) in MB, or
// 0 where /proc is unavailable.
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
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
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// readValue answers a read of key from a KV machine snapshot ("k=v,..."),
// the way the node's GET /read does.
func readValue(snapshot, key string) (string, bool) {
	for _, pair := range strings.Split(snapshot, ",") {
		if k, v, ok := strings.Cut(pair, "="); ok && k == key {
			return v, true
		}
	}
	return "", false
}

// writeIndex extracts i from a command "set k<j> w<i>" (or a broadcast ID
// carrying one).
func writeIndex(cmd string) (int, bool) {
	i := strings.LastIndexByte(cmd, 'w')
	if i < 0 {
		return 0, false
	}
	n, err := strconv.Atoi(cmd[i+1:])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

func keyName(j int) string { return "k" + strconv.Itoa(j) }

func writeCmd(key, idx int) string { return "set " + keyName(key) + " w" + strconv.Itoa(idx) }

// validRead reports whether a read of key returning value is allowed: value
// must be "w<i>" for a write i whose key is key.
func validRead(writeKey []int, key int, value string) bool {
	if !strings.HasPrefix(value, "w") {
		return false
	}
	i, err := strconv.Atoi(value[1:])
	return err == nil && i >= 0 && i < len(writeKey) && writeKey[i] == key
}
