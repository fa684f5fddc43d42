package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// record is everything one run observed, written as JSON next to the
// printed result so a later comparison can look at the samples and the
// machine, not just the medians.
type record struct {
	Workload    string                         `json:"workload"`
	Seed        int64                          `json:"seed"`
	Seconds     int                            `json:"seconds"`
	Trace       bool                           `json:"trace"`
	Plant       string                         `json:"plant,omitempty"`
	StartedUnix float64                        `json:"started_unix"`
	Env         env                            `json:"env"`
	Metrics     map[string]metric              `json:"metrics"`
	Samples     map[string][]float64           `json:"samples"`
	Phases      []phaseRec                     `json:"phases"`
	Counts      map[string]map[endpoint]*tally `json:"counts"` // by phase kind: warmup, reference, saturation, analysis
	Properties  map[string]float64             `json:"properties"`
	Spans       []span                         `json:"spans,omitempty"` // traced run only
	Error       string                         `json:"error,omitempty"`
}

// env is the machine and build a run measured.
type env struct {
	CPUModel            string `json:"cpu_model"`
	NumCPU              int    `json:"nproc"`
	CPUsUsed            int    `json:"cpus_used"` // CPUs the run may use: run.py pins it to one
	GeneratorGOMAXPROCS int    `json:"generator_gomaxprocs"`
	ServerGOMAXPROCS    string `json:"server_gomaxprocs"`
	GoVersion           string `json:"go_version"`
	Commit              string `json:"commit"`
	SourceDigest        string `json:"source_digest"`
}

// phaseRec summarises one traffic phase.
type phaseRec struct {
	Name      string           `json:"name"`
	Rate      float64          `json:"rate"` // 0 for a saturation phase
	Streams   []streamSummary  `json:"streams"`
	Latency   map[string][]int `json:"latency_us,omitempty"`      // reference phase: every latency by endpoint, µs, -1 = failed
	Completed []float64        `json:"completed_per_s,omitempty"` // saturation phase: completions per second by window
}

type streamSummary struct {
	Name     string  `json:"name"`
	Requests int     `json:"requests"`
	Failed   int     `json:"failed"`
	P50MS    float64 `json:"p50_ms"`
	P99MS    float64 `json:"p99_ms"`
	LagP99MS float64 `json:"lag_p99_ms"`
}

func newRecord(b *bench) record {
	return record{
		Workload: b.workload, Seed: b.seed, Seconds: b.seconds, Trace: b.trace, Plant: b.plant,
		StartedUnix: nowSeconds(),
		Env: env{
			CPUModel:            cpuModel(),
			NumCPU:              onlineCPUs(),
			CPUsUsed:            runtime.NumCPU(),
			GeneratorGOMAXPROCS: runtime.GOMAXPROCS(0),
			ServerGOMAXPROCS:    serverGOMAXPROCS(),
			GoVersion:           runtime.Version(),
			Commit:              gitCommit(),
			SourceDigest:        sourceDigest(),
		},
		Samples:    map[string][]float64{},
		Counts:     map[string]map[endpoint]*tally{},
		Properties: map[string]float64{},
	}
}

func (r *record) sample(name string, v float64) { r.Samples[name] = append(r.Samples[name], v) }

// count adds a stream's outcomes to the record's per-phase-kind counts.
func (r *record) count(kind string, s *stream) {
	m := r.Counts[kind]
	if m == nil {
		m = map[endpoint]*tally{}
		r.Counts[kind] = m
	}
	addTally(m, s)
}

func addTally(m map[endpoint]*tally, s *stream) {
	for i, o := range s.out {
		ep := s.reqs[i].ep
		t := m[ep]
		if t == nil {
			t = &tally{Failed: map[string]int{}}
			m[ep] = t
		}
		t.Sent++
		if o.ok() {
			t.Succeeded++
		} else {
			t.Failed[o.reason]++
		}
	}
}

// attempted returns every operation of the run and how many failed.
func (r *record) attempted() (int, int) {
	n, failed := 0, 0
	for _, m := range r.Counts {
		for _, t := range m {
			n += t.Sent
			failed += t.Sent - t.Succeeded
		}
	}
	return max(n, 1), failed
}

func (r *record) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tr := 0
	if r.Trace {
		tr = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", r.Workload, r.Seed, tr, int64(r.StartedUnix*1000))
	if r.Plant != "" {
		name = r.Plant + "-" + name
	}
	path := filepath.Join(dir, name)
	b, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// onlineCPUs is the machine's CPU count, whatever this process may use.
func onlineCPUs() int {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return 0
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, _, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "processor" {
			n++
		}
	}
	return n
}

// serverGOMAXPROCS is what memeserve runs with: it inherits the
// environment and the CPU affinity, and Go defaults GOMAXPROCS to the
// number of CPUs the process may use.
func serverGOMAXPROCS() string {
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		return v
	}
	return fmt.Sprint(runtime.NumCPU())
}

// gitCommit names the commit when the tree is a git checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file of the program under
// test, so records from checkouts without git still name what they ran.
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || filepath.Base(p) == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
