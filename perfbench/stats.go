package main

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median of xs (0 when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapGroupOps is how many consecutive ops share one heap sample group:
// a whole number of cycles of every workload (three programs for cold,
// check and restart, eight edit sites for edit).
const heapGroupOps = 24

// heapPeak tracks the live heap a workload peaks at. /gc/heap/live:bytes
// is the heap marked live by the latest GC; it is sampled after every op.
// Each group of heapGroupOps ops keeps its highest sample, and the peak
// is the median over the window's whole groups. The single highest
// sample of a window is no steadier than a coin: on restart it reads
// about 5 MB more whenever some GC happens to end while an SDG record
// and its decoded graph are both live, which a run hits or misses by
// chance.
type heapPeak struct {
	groups []float64
	n      int
	buf    []metrics.Sample
}

func (h *heapPeak) sample() {
	if h.buf == nil {
		h.buf = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	}
	metrics.Read(h.buf)
	if h.n%heapGroupOps == 0 {
		h.groups = append(h.groups, 0)
	}
	h.n++
	g := &h.groups[len(h.groups)-1]
	if v := h.buf[0].Value; v.Kind() == metrics.KindUint64 && float64(v.Uint64()) > *g {
		*g = float64(v.Uint64())
	}
}

// peak is the median of the whole groups' highest samples, or the
// partial group's when the window is shorter than one group.
func (h *heapPeak) peak() float64 {
	whole := h.groups
	if h.n%heapGroupOps != 0 && len(whole) > 1 {
		whole = whole[:len(whole)-1]
	}
	return median(whole)
}

// readMetrics reads runtime/metrics values by name.
func readMetrics(names ...string) map[string]float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make(map[string]float64, len(names))
	for _, m := range s {
		switch m.Value.Kind() {
		case metrics.KindUint64:
			out[m.Name] = float64(m.Value.Uint64())
		case metrics.KindFloat64:
			out[m.Name] = m.Value.Float64()
		}
	}
	return out
}

// hostDiagnostics describes the host a run measured on. It is printed
// ahead of the result, outside the metric set: sizing runs tied the
// run-to-run spread to the host's CPU steal.
func hostDiagnostics(cacheDir string) map[string]any {
	return map[string]any{
		"steal_share": stealShare(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"godebug":     os.Getenv("GODEBUG"),
		"cache_fs":    filesystemOf(cacheDir),
	}
}

var bootCPU = readCPUTicks()

// stealShare is the share of all CPU ticks since the process started
// that the hypervisor stole (the "steal" column of /proc/stat).
func stealShare() float64 {
	now := readCPUTicks()
	if len(now) < 8 || len(bootCPU) < 8 {
		return 0
	}
	var total, steal float64
	for i := range now {
		d := float64(now[i] - bootCPU[i])
		total += d
		if i == 7 {
			steal = d
		}
	}
	if total == 0 {
		return 0
	}
	return steal / total
}

func readCPUTicks() []uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 2 || fields[0] != "cpu" {
		return nil
	}
	var out []uint64
	for _, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// filesystemOf names the filesystem type holding path (or its nearest
// existing parent), from /proc/self/mounts.
func filesystemOf(path string) string {
	data, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	abs, err := absExisting(path)
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mnt := f[1]
		if (abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > len(best) {
			best, fs = mnt, f[2]
		}
	}
	return fs
}

// absExisting resolves path, or its nearest existing parent, to an
// absolute path.
func absExisting(path string) (string, error) {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(abs); err == nil || filepath.Dir(abs) == abs {
			return abs, nil
		}
		abs = filepath.Dir(abs)
	}
}
