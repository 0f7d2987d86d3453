// Command servebench is cuisinevol's end-to-end benchmark. It builds an
// in-process server with server.New, drives its Handler with seeded
// closed-loop traffic through httptest requests and recorders (no
// sockets, so the numbers measure cuisinevol rather than the kernel's
// loopback path), checks the responses, and reports set-up time,
// throughput, latency and live heap by name and unit. With --trace 1 it
// adds a traced phase that times each layer's public functions on the
// same inputs and reports a per-layer breakdown.
//
// Run it from the repository root through the wrapper, which builds the
// binary into .bench_build/:
//
//	bash servebench/run.sh --workload hot_reads --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics, where metrics holds the
// end-to-end metrics BENCHMARK.json lists (--trace 0) or its per-layer
// metrics (--trace 1). The line before it is the full report: the
// environment, every metric the run measured and its sample count.
// NOTES.md says why each workload exists and what each metric should
// move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"cuisinevol/internal/server"
)

// endToEnd and perLayer are the metric names BENCHMARK.json lists. The
// result line carries exactly one of the two sets; the report line
// carries every metric the run measured, workload-specific ones such as
// latency_p99_us, replicates_per_s, append_p50_us and error_ratio
// included.
var (
	endToEnd = []string{"setup_s", "throughput_rps", "latency_p50_us", "latency_p90_us", "heap_live_mb"}
	perLayer = []string{
		"server.hit_us", "server.revalidate_us", "server.hit_ratio", "server.self_us",
		"server.computations_per_req", "server.alloc_bytes_per_req",
		"corpusstore.resolve_us", "corpusstore.append_us", "corpusstore.register_us", "corpusstore.loaded_mb",
		"itemset.mine_indexed_us", "itemset.sets_per_mine", "itemset.index_build_us", "itemset.index_builds_per_req",
		"itemset.live_append_us", "itemset.live_snapshot_us", "itemset.index_mb", "itemset.replicate_mine_us",
		"overrep.topk_us",
		"evomodel.run_us", "evomodel.ensemble_us",
		"experiment.fig4_self_us",
		"synth.generate_s",
		"runtime.gc_cycles_per_kreq",
		"trace.overhead_ratio",
	}
)

// workload is one traffic mix. prepare generates its inputs, a pure
// function of (seed, scale); setup builds a fresh server and warms it,
// and is what setup_s times; next issues one client's next request.
type workload interface {
	prepare(cfg config) error
	setup() error
	server() *server.Server
	clients() int
	// next issues client c's next request, calls c.checkpoint after each
	// complete unit of the plan, and returns false once c's plan is
	// used up.
	next(c *client) bool
	// settle runs after a timed phase, before its live heap is read.
	settle() error
	// traceSetup builds the objects the traced phase's layer calls run
	// on.
	traceSetup(tr *tracer) error
	// verify re-asks a fresh server the last phase's sampled computed
	// requests and returns how many it checked and a description of each
	// mismatch.
	verify() (checked int, problems []string, err error)
	// plan describes the first n requests of each client's plan.
	plan(n int) [][]string
}

// workloadNames lists the workloads: BENCHMARK.json's, in its order,
// then mine_misses, which it leaves out (see NOTES.md).
var workloadNames = []string{"hot_reads", "paper_fig4", "append_reads", "mine_misses"}

func newWorkload(name string) workload {
	switch name {
	case "hot_reads":
		return &hotReads{}
	case "mine_misses":
		return &mineMisses{}
	case "paper_fig4":
		return &paperFig4{}
	case "append_reads":
		return &appendReads{}
	}
	return nil
}

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	scale    float64
	out      string
}

// A run splits its untraced time into as many phases of at least
// minPhase as fit, from one to maxPhases, each on a fresh set-up; every
// end-to-end metric, setup_s included, is the median over them.
// minPhase lets paper_fig4, at about 25 requests/s in blocks of 24,
// complete the 100 requests its latency_p90_us needs in every phase.
const (
	maxPhases = 4
	minPhase  = 7500 * time.Millisecond
)

// stem names the traced run's output files.
func (c config) stem() string { return fmt.Sprintf("%s-seed%d", c.workload, c.seed) }

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	var (
		cfg     config
		seconds float64
		trace   int
	)
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed; equal seeds give equal inputs")
	fs.Float64Var(&seconds, "seconds", 30, "seconds measured in all, split evenly among the timed phases")
	fs.IntVar(&trace, "trace", 0, "1 adds a traced phase and reports the per-layer metrics")
	fs.Float64Var(&cfg.scale, "scale", 1, "corpus scale; 1 is the paper's 158,544 recipes")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "servebench"), "directory for the traced run's span file and CPU profile")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	switch {
	case fs.NArg() > 0:
		return config{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	case newWorkload(cfg.workload) == nil:
		return config{}, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
	case seconds <= 0, cfg.scale <= 0, trace != 0 && trace != 1:
		return config{}, fmt.Errorf("need --seconds > 0, --scale > 0 and --trace 0 or 1")
	}
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err == nil {
		err = rep.print(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

// run prepares the workload's inputs, then measures the untraced
// phases, each on a fresh set-up and followed by a re-check of its
// sampled responses, and reports each end-to-end metric's median over
// them. With cfg.trace the untraced phases share half of cfg.seconds
// and a traced phase on a further set-up takes the other half.
func run(cfg config) (*report, error) {
	w := newWorkload(cfg.workload)
	rep := &report{
		Workload: cfg.workload,
		Seed:     cfg.seed,
		Scale:    cfg.scale,
		Seconds:  cfg.seconds.Seconds(),
		Trace:    cfg.trace,
		Env:      readEnvironment(),
		Metrics:  metricSet{},
	}
	if err := w.prepare(cfg); err != nil {
		return nil, fmt.Errorf("preparing inputs: %w", err)
	}
	untraced := cfg.seconds
	if cfg.trace {
		untraced /= 2
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			return nil, err
		}
	}
	phases := min(maxPhases, max(1, int(untraced/minPhase)))
	phaseLen := untraced / time.Duration(phases)
	var plain *phase // the last untraced phase
	for i := 0; i < phases; i++ {
		runtime.GC() // the previous set-up's server is garbage by now
		start := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setup := time.Since(start).Seconds()
		var stopProfile func() error
		if cfg.trace && i == phases-1 {
			var err error
			if stopProfile, err = startCPUProfile(filepath.Join(cfg.out, cfg.stem()+".cpu.pprof")); err != nil {
				return nil, err
			}
		}
		p, err := measure(w, phaseLen, nil)
		if stopProfile != nil {
			if perr := stopProfile(); err == nil {
				err = perr
			}
		}
		if err != nil {
			return nil, err
		}
		rep.addPhase(p)
		ms := p.endToEnd()
		ms.set("setup_s", setup, "s", 1)
		rep.Phases = append(rep.Phases, ms)
		if err := verify(w, rep); err != nil {
			return nil, err
		}
		plain = p
	}
	for name, m := range medianOver(rep.Phases) {
		rep.Metrics[name] = m
	}
	if cfg.trace {
		// The traced phase starts from a fresh set-up, so it sends the
		// same requests to a server in the same state.
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		tr := newTracer()
		if err := w.traceSetup(tr); err != nil {
			return nil, fmt.Errorf("trace setup: %w", err)
		}
		traced, err := measure(w, cfg.seconds/2, tr)
		if err != nil {
			return nil, err
		}
		rep.addPhase(traced)
		if err := verify(w, rep); err != nil {
			return nil, err
		}
		plain.layerCounters(rep)
		tr.layerMetrics(rep)
		rep.set("trace.overhead_ratio", ratio(traced.rps, rep.Metrics["throughput_rps"].Value), "ratio", traced.ok)
		if err := tr.write(filepath.Join(cfg.out, cfg.stem()+".trace.jsonl")); err != nil {
			return nil, err
		}
	}
	if rep.Attempted == 0 {
		return nil, fmt.Errorf("no request was attempted")
	}
	rep.set("error_ratio", ratio(float64(rep.Failed), float64(rep.Attempted)), "ratio", rep.Attempted)
	return rep, nil
}

// verify re-checks the sampled responses of the phase just measured and
// counts every mismatch as failed.
func verify(w workload, rep *report) error {
	checked, problems, err := w.verify()
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	rep.Verified += checked
	rep.Failed += len(problems)
	rep.problem(problems...)
	return nil
}

func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// metricSet holds metrics by name.
type metricSet map[string]metric

func (s metricSet) set(name string, v float64, unit string, samples int) {
	s[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// report is everything one run measured.
type report struct {
	Workload  string      `json:"workload"`
	Seed      uint64      `json:"seed"`
	Scale     float64     `json:"scale"`
	Seconds   float64     `json:"seconds"`
	Trace     bool        `json:"trace"`
	Env       environment `json:"env"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Verified  int         `json:"verified"`
	Problems  []string    `json:"problems,omitempty"`
	Metrics   metricSet   `json:"metrics"`
	Phases    []metricSet `json:"phases"` // each untraced phase's end-to-end metrics
}

func (r *report) set(name string, v float64, unit string, samples int) {
	r.Metrics.set(name, v, unit, samples)
}

func (r *report) addPhase(p *phase) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	r.problem(p.problems...)
}

// maxProblems bounds the failure descriptions a report keeps.
const maxProblems = 10

func (r *report) problem(msgs ...string) {
	for _, m := range msgs {
		if len(r.Problems) < maxProblems {
			r.Problems = append(r.Problems, m)
		}
	}
}

// print writes the report line and then the result line, which holds
// correct, attempted, failed and the metrics BENCHMARK.json lists for
// this mode. Nothing is written when one of those metrics is missing.
func (r *report) print(w io.Writer) error {
	names := endToEnd
	if r.Trace {
		names = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, n := range names {
		m, ok := r.Metrics[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured (too few samples for its percentile?)", n)
		}
		res.Metrics[n] = value{Value: m.Value, Unit: m.Unit}
	}
	full, err := json.Marshal(r)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", full, line)
	return err
}

type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	CPU        string `json:"cpu"`
}

func readEnvironment() environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		CPU:        "unknown",
	}
	// The CPU model is recorded, never relied on: hosts without
	// /proc/cpuinfo keep "unknown".
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}
