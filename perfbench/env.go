package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"plsh/internal/perfmodel"
)

// The index configuration every workload uses: the tweet-like corpus at
// dimension 65536 with the paper's K, M and radius.
const (
	dim    = 65536
	hashK  = 16
	hashM  = 16
	radius = 0.9
	// hashSeed is the hash-family seed. It is fixed, not derived from
	// -seed, so that a seed changes only the inputs the system receives.
	hashSeed = 1
)

// spec names one reported metric and its unit.
type spec struct{ name, unit string }

// endToEnd lists the metrics a timed run reports (BENCHMARK.json
// end_to_end, in the same order).
var endToEnd = []spec{
	{"search_qps", "1/s"},
	{"search_p50_ms", "ms"},
	{"search_p90_ms", "ms"},
	{"insert_docs_per_s", "1/s"},
	{"insert_p50_ms", "ms"},
	{"insert_p90_ms", "ms"},
	{"recall", "ratio"},
	{"setup_s", "s"},
	{"rss_bytes_per_doc", "B"},
	{"recover_s", "s"},
}

// perLayer lists the metrics a traced run reports (BENCHMARK.json
// per_layer). A layer that is not on a workload's path reports 0.
var perLayer = []spec{
	{"lshhash.sketch_us_per_query", "us"},
	{"lshhash.sketch_us_per_doc", "us"},
	{"core.search_us_per_query", "us"},
	{"core.q2_us_per_query", "us"},
	{"core.q3_us_per_query", "us"},
	{"core.collisions_per_query", "count"},
	{"core.unique_per_query", "count"},
	{"core.results_per_query", "count"},
	{"core.verify_yield", "ratio"},
	{"core.build_s", "s"},
	{"core.build_hash_s", "s"},
	{"core.build_i1_s", "s"},
	{"core.build_i2_s", "s"},
	{"core.build_i3_s", "s"},
	{"delta.insert_us_per_doc", "us"},
	{"delta.coalesce_ms", "ms"},
	{"node.search_us_per_query", "us"},
	{"node.self_us_per_query", "us"},
	{"node.delta_rows_mean", "count"},
	{"node.merge_overlap_share", "ratio"},
	{"node.merges", "count"},
	{"node.merge_s_total", "s"},
	{"node.insert_us_per_doc", "us"},
	{"node.memory_bytes_per_doc", "B"},
	{"persist.wal_append_p99_us", "us"},
	{"persist.bytes_written_per_doc", "B"},
	{"persist.snapshot_bytes", "B"},
	{"transport.search_us_per_query", "us"},
	{"transport.self_us_per_query", "us"},
	{"transport.wire_bytes_per_query", "B"},
	{"transport.wire_bytes_per_doc", "B"},
	{"transport.client_allocs_per_query", "count"},
	{"cluster.group_rtt_p50_ms", "ms"},
	{"cluster.straggler_gap_ms", "ms"},
	{"cluster.coord_us_per_batch", "us"},
	{"cluster.failovers", "count"},
	{"cluster.group_failures", "count"},
	{"plsh.search_us_per_query", "us"},
	{"plsh.search_overhead_us_per_query", "us"},
	{"plsh-node.cpu_ms_per_1k_queries", "ms"},
	{"plsh-node.rss_bytes", "B"},
	{"bench.generator_lag_p99_ms", "ms"},
	{"bench.generator_lag_max_ms", "ms"},
	{"trace.overhead", "ratio"},
	{"trace.spans", "count"},
}

// env is one run's configuration and everything it records.
type env struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	// scale multiplies every corpus and sample size. The command always
	// runs at 1; the package's tests shrink it to run the workloads fast.
	scale   float64
	tmp     string
	nodeBin string
	workers int

	chk   checker
	tr    *tracer // nil on timed runs
	vals  map[string]float64
	notes [][2]string
	mach  machine
	// phases records the wall time of each stage of the run.
	phases    []string
	lastPhase time.Time
}

func newEnv(workload string, seed uint64, seconds time.Duration, traced bool, scale float64, tmp, nodeBin string) *env {
	e := &env{
		workload: workload,
		seed:     seed,
		seconds:  seconds,
		traced:   traced,
		scale:    scale,
		tmp:      tmp,
		nodeBin:  nodeBin,
		workers:  runtime.NumCPU(),
		vals:     map[string]float64{},
	}
	if traced {
		e.tr = newTracer()
	}
	e.lastPhase = time.Now()
	e.mach = fingerprint()
	e.phase("fingerprint")
	return e
}

// phase closes the current stage of the run under name.
func (e *env) phase(name string) {
	now := time.Now()
	e.phases = append(e.phases, fmt.Sprintf("%s=%.1fs", name, now.Sub(e.lastPhase).Seconds()))
	e.lastPhase = now
}

// n scales a corpus or sample size.
func (e *env) n(base int) int { return max(1, int(math.Round(float64(base)*e.scale))) }

// set records a metric value. Values for metrics the run's mode does not
// report are kept in the result file only.
func (e *env) set(name string, v float64) { e.vals[name] = v }

// note records a line of the human-readable report (sample counts,
// digests, per-run context).
func (e *env) note(key, format string, args ...any) {
	e.notes = append(e.notes, [2]string{key, fmt.Sprintf(format, args...)})
}

// specs is the metric list the run's mode reports.
func (e *env) specs() []spec {
	if e.traced {
		return perLayer
	}
	return endToEnd
}

// metrics returns the mode's metrics (writeFiles has checked that every
// one was measured).
func (e *env) metrics() map[string]metric {
	out := map[string]metric{}
	for _, s := range e.specs() {
		out[s.name] = metric{Value: e.vals[s.name], Unit: s.unit}
	}
	return out
}

func (e *env) printReport(w io.Writer) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%.1f trace=%v\n",
		e.workload, e.seed, e.seconds.Seconds(), e.traced)
	m, _ := json.Marshal(e.mach)
	fmt.Fprintf(w, "machine %s\n", m)
	for _, n := range e.notes {
		fmt.Fprintf(w, "  %-28s %s\n", n[0], n[1])
	}
	fmt.Fprintf(w, "  %-28s %s\n", "phases", strings.Join(e.phases, " "))
	attempted, failed := e.chk.attempted.Load(), e.chk.failed.Load()
	fmt.Fprintf(w, "  %-28s %d/%d = %g\n", "error_rate", failed, attempted, float64(failed)/float64(max(attempted, 1)))
	for _, msg := range e.chk.messages() {
		fmt.Fprintf(w, "  FAILED: %s\n", msg)
	}
	for _, s := range e.specs() {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", s.name, e.vals[s.name], s.unit)
	}
}

// writeFiles stores the full result (every value measured, the machine
// fingerprint and the notes) and, on traced runs, the spans.
func (e *env) writeFiles(work string) error {
	for _, s := range e.specs() {
		if _, ok := e.vals[s.name]; !ok {
			return fmt.Errorf("metric %s was not measured", s.name)
		}
	}
	mode := "timed"
	if e.traced {
		mode = "traced"
	}
	base := fmt.Sprintf("%s-seed%d-%s", e.workload, e.seed, mode)
	dir := filepath.Join(work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	notes := map[string]string{}
	for _, n := range e.notes {
		notes[n[0]] = n[1]
	}
	doc, err := json.MarshalIndent(map[string]any{
		"workload":  e.workload,
		"seed":      e.seed,
		"seconds":   e.seconds.Seconds(),
		"traced":    e.traced,
		"machine":   e.mach,
		"notes":     notes,
		"phases":    e.phases,
		"values":    e.vals,
		"attempted": e.chk.attempted.Load(),
		"failed":    e.chk.failed.Load(),
		"failures":  e.chk.messages(),
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), doc, 0o644); err != nil {
		return err
	}
	if e.tr == nil {
		return nil
	}
	tdir := filepath.Join(work, "traces")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(tdir, base+".jsonl")
	if err := e.tr.write(path); err != nil {
		return err
	}
	e.note("spans_file", "%s", path)
	return nil
}

// checker counts attempted operations and the ones that failed or
// returned a wrong answer.
type checker struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	first     []string
}

// op records one attempted operation; a non-nil err marks it failed.
func (c *checker) op(err error) {
	c.attempted.Add(1)
	if err != nil {
		c.fail(err)
	}
}

func (c *checker) fail(err error) {
	c.failed.Add(1)
	c.mu.Lock()
	if len(c.first) < 20 {
		c.first = append(c.first, err.Error())
	}
	c.mu.Unlock()
}

func (c *checker) messages() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.first)
}

// latencies collects per-request durations.
type latencies struct{ ms []float64 }

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, float64(d.Nanoseconds())/1e6) }

// quantile returns the nearest-rank p-quantile in milliseconds.
func (l *latencies) quantile(p float64) float64 {
	if len(l.ms) == 0 {
		return 0
	}
	s := slices.Clone(l.ms)
	slices.Sort(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func (l *latencies) sum() float64 {
	t := 0.0
	for _, v := range l.ms {
		t += v
	}
	return t
}

// median returns the median of vs (0 for none).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// machine fingerprints the host so that times are compared like with
// like. Calibration holds perfmodel's measured primitive costs as an
// in-run reference for how fast this machine was during the run.
type machine struct {
	CPU         string          `json:"cpu"`
	NProc       int             `json:"nproc"`
	GOMAXPROCS  int             `json:"gomaxprocs"`
	Go          string          `json:"go"`
	Kernel      string          `json:"kernel"`
	Calibration perfmodel.Costs `json:"calibration_ns"`
}

func fingerprint() machine {
	m := machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	m.Calibration = perfmodel.Calibrate(dim, 7.2, 1)
	return m
}

// procStatus reads one "Key: value kB" field of /proc/<pid>/status in
// bytes; pid "self" reads this process.
func procStatus(pid, key string) (int64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && k == key {
			f := strings.Fields(v)
			if len(f) == 0 {
				break
			}
			n, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0, err
			}
			return n * 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%s/status has no %s", pid, key)
}

// procCPU returns the user+system CPU time a process has used.
func procCPU(pid string) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	// After the command name: state is field 3, utime 14 and stime 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%s/stat", pid)
	}
	const clkTck = 100 // USER_HZ on every Linux architecture Go supports
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// procWritten returns the bytes a process has passed to write calls
// (wchar in /proc/<pid>/io): journal and snapshot writes, whether or not
// the page cache has reached the disk yet.
func procWritten(pid string) (int64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/io")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "wchar: "); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%s/io has no wchar", pid)
}

// cpuTimes reads the machine-wide steal and total CPU ticks from
// /proc/stat. On a virtual machine, steal is time the host gave this
// machine's CPUs to someone else: a run with a large steal share measured
// a slower machine than a run without.
func cpuTimes() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		if i < 8 { // guest time is already counted in user time
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// settledRSS returns this process's resident set after a full collection
// has returned freed memory to the OS, so that two readings differ by live
// data rather than by garbage.
func settledRSS() (int64, error) {
	runtime.GC()
	debug.FreeOSMemory()
	return procStatus("self", "VmRSS")
}

// fileSize returns the size of path, 0 if it does not exist.
func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}
