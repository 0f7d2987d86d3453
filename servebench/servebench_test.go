package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the subset of BENCHMARK.json the self-test checks
// against the code.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func names(ms []benchMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		if newWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %s is not in the code", w.Name)
		}
	}
	if got := names(bf.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, code has %v", got, endToEnd)
	}
	if got := names(bf.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, code has %v", got, perLayer)
	}
}

// workloadMetrics are the metrics each workload reports beyond the
// BENCHMARK.json lists.
var workloadMetrics = map[string][]benchMetric{
	"hot_reads":    {{"latency_p99_us", "us"}},
	"mine_misses":  {{"latency_p99_us", "us"}},
	"paper_fig4":   {{"replicates_per_s", "1/s"}},
	"append_reads": {{"query_p50_us", "us"}, {"query_p90_us", "us"}, {"append_p50_us", "us"}, {"append_p90_us", "us"}},
}

// TestWorkloadsAtTinyScale runs every workload traced, in one untraced
// and one traced phase (runs this short make one of each), at a tiny
// corpus scale and checks that it answers correctly and reports every metric
// with its unit, and that the result line has exactly its four keys.
func TestWorkloadsAtTinyScale(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			seconds, scale := 2*time.Second, 0.02
			switch name {
			case "append_reads":
				seconds = 10 * time.Second // its lineage keeps its size at any scale: ~25 cycles/s
			case "mine_misses":
				seconds = 4 * time.Second
				scale = 0.1 // its low supports make every subset frequent in smaller regions
			}
			cfg := config{workload: name, seed: 3, seconds: seconds, trace: true, scale: scale, out: t.TempDir()}
			rep, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || rep.Metrics["error_ratio"] != (metric{Value: 0, Unit: "ratio", Samples: rep.Attempted}) {
				t.Fatalf("%d of %d requests failed: %v", rep.Failed, rep.Attempted, rep.Problems)
			}
			want := append(append(append([]benchMetric{{"error_ratio", "ratio"}}, bf.EndToEnd...), bf.PerLayer...), workloadMetrics[name]...)
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("metric %s: got %+v (present %t), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, f := range []string{cfg.stem() + ".trace.jsonl", cfg.stem() + ".cpu.pprof"} {
				if st, err := os.Stat(filepath.Join(cfg.out, f)); err != nil || st.Size() == 0 {
					t.Errorf("traced run left no %s: %v", f, err)
				}
			}

			var out bytes.Buffer
			if err := rep.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			var keys []string
			for k := range res {
				keys = append(keys, k)
			}
			if len(keys) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
				t.Errorf("result line keys %v, want correct, attempted, failed, metrics", keys)
			}
		})
	}
}

// TestUntracedRunCreatesNoSpans checks that a run with tracing off
// writes nothing.
func TestUntracedRunCreatesNoSpans(t *testing.T) {
	cfg := config{workload: "mine_misses", seed: 5, seconds: 300 * time.Millisecond, scale: 0.02, out: filepath.Join(t.TempDir(), "out")}
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("failures: %v", rep.Problems)
	}
	if _, err := os.Stat(cfg.out); !os.IsNotExist(err) {
		t.Errorf("untraced run created %s (stat error %v)", cfg.out, err)
	}
	if _, ok := rep.Metrics["server.self_us"]; ok {
		t.Error("untraced run reported per-layer metrics")
	}
}

// TestPlansFollowTheSeed checks that a workload's requests are a pure
// function of the seed: equal seeds give equal plans, different seeds
// different ones.
func TestPlansFollowTheSeed(t *testing.T) {
	for _, name := range workloadNames {
		plan := func(seed uint64) [][]string {
			w := newWorkload(name)
			if err := w.prepare(config{workload: name, seed: seed, scale: 0.02}); err != nil {
				t.Fatal(err)
			}
			return w.plan(64)
		}
		a, b, c := plan(1), plan(1), plan(2)
		if len(a) == 0 || len(a[0]) != 64 {
			t.Fatalf("%s: plan has %d clients, want 64 requests each", name, len(a))
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different plans", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same plan", name)
		}
	}
}
