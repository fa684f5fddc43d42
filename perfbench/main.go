// Command perfbench drives the real memeserve binary from the outside with
// open-loop and saturating HTTP loads and reports end-to-end and per-layer
// metrics.
//
// It is built and run by run.py (see README.md):
//
//	python3 perfbench/run.py --workload lookup --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Every sample and the environment
// go to a record under .bench_build/results.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// bench is one run of one workload.
type bench struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	plant    string // "proxy" or "slow2x": a pass-through or slow proxy in front of memeserve
	bin      string // directory holding memeserve and memepipeline
	work     string // work directory of this run
	self     string // this executable, for the proxy child

	rec    record
	tally  map[endpoint]*tally // per server lifetime, cross-checked against /v1/metrics
	tracer *tracer             // set during the traced in-process pass
	proxy  *proc               // the slow proxy, while it runs
}

// tally counts what the generator sent to one endpoint.
type tally struct {
	Sent      int            `json:"sent"`
	Succeeded int            `json:"succeeded"`
	Failed    map[string]int `json:"failed"` // by reason
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// errIncorrect marks a run whose outputs did not match the oracle.
var errIncorrect = errors.New("incorrect output")

func main() {
	if len(os.Args) > 1 && os.Args[1] == "proxy" {
		proxyMain(os.Args[2:])
		return
	}
	b := &bench{}
	flag.StringVar(&b.workload, "workload", "", "workload: lookup or bulk")
	flag.Int64Var(&b.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&b.seconds, "seconds", 10, "seconds of traffic the run measures")
	traceFlag := flag.Int("trace", 0, "1 runs the traced run that reports per-layer metrics")
	flag.StringVar(&b.plant, "plant", "", `"proxy" puts a pass-through proxy in front of memeserve, "slow2x" one that doubles service time`)
	flag.StringVar(&b.bin, "bin", ".bench_build/bin", "directory holding the built memeserve and memepipeline")
	work := flag.String("work", ".bench_build/work", "work directory")
	results := flag.String("results", ".bench_build/results", "directory receiving the run record")
	flag.Parse()
	b.trace = *traceFlag == 1
	if b.trace {
		// The traced run hosts the server in this process too. With one P
		// the generator's locked threads and the server's goroutines wait
		// for each other's P hand-offs, and latency grew sixfold over a
		// pass; two Ps on the one CPU leave the interleaving to the kernel,
		// as between the two processes of an untraced run.
		runtime.GOMAXPROCS(2)
	}
	if _, ok := specs[b.workload]; !ok {
		fatal(fmt.Errorf("unknown workload %q (want lookup or bulk)", b.workload))
	}
	if b.seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || (b.plant != "" && b.plant != "proxy" && b.plant != "slow2x") {
		fatal(errors.New("bad -seconds, -trace or -plant"))
	}
	var err error
	if b.self, err = os.Executable(); err != nil {
		fatal(err)
	}
	b.work = filepath.Join(*work, fmt.Sprintf("%s-%d-%d", b.workload, b.seed, os.Getpid()))
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fatal(err)
	}
	defer os.RemoveAll(b.work)

	b.rec = newRecord(b)
	metrics, err := b.run()
	correct := err == nil
	if err != nil && !errors.Is(err, errIncorrect) {
		os.RemoveAll(b.work)
		fatal(err)
	}
	if err != nil {
		b.rec.Error = err.Error()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	b.rec.Metrics = metrics
	if path, werr := b.rec.write(*results); werr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing record:", werr)
	} else {
		fmt.Fprintln(os.Stderr, "perfbench: record written to", path)
	}
	printTable(metrics)
	attempted, failed := b.rec.attempted()
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, metrics})
	fmt.Println(string(out))
	if !correct {
		os.RemoveAll(b.work)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

func (b *bench) tool(name string) string { return filepath.Join(b.bin, name) }

// printTable prints every metric by name with its unit.
func printTable(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %16s %s\n", n, strconv.FormatFloat(m[n].Value, 'g', 8, 64), m[n].Unit)
	}
}

// run sets up the system, drives the workload and returns its metrics.
func (b *bench) run() (map[string]metric, error) {
	if b.trace {
		return b.runTraced()
	}
	return b.runUntraced()
}

// setUpTimed sets the system up once more as the k-th set-up and records
// its set-up and build times.
func (b *bench) setUpTimed(k int) (*system, error) {
	s, err := b.setUp(k)
	if err != nil {
		return nil, err
	}
	b.rec.sample("setup_s", s.setup.Seconds())
	b.rec.sample("build_s", s.build.Seconds())
	return s, nil
}

func init() {
	// The generator's own parallelism is recorded; it never exceeds the
	// machine's CPU count.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
}

// nowSeconds is a timestamp for the record.
func nowSeconds() float64 { return float64(time.Now().UnixNano()) / 1e9 }
