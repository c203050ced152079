package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"

	"plsh/internal/core"
	"plsh/internal/sparse"
)

// runSmall runs a workload at a small scale and returns its env.
func runSmall(t *testing.T, workload string, seed uint64, traced bool) *env {
	t.Helper()
	e := newEnv(workload, seed, 300*time.Millisecond, traced, 0.02, t.TempDir(), "")
	if err := workloads[workload](context.Background(), e); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if f := e.chk.failed.Load(); f != 0 {
		t.Fatalf("%s: %d failed operations: %v", workload, f, e.chk.messages())
	}
	return e
}

func TestSameSeedSameInputs(t *testing.T) {
	a := genInputs(7, 2000, 500, 256, 64)
	b := genInputs(7, 2000, 500, 256, 64)
	c := genInputs(8, 2000, 500, 256, 64)
	if a.digest != b.digest {
		t.Fatalf("seed 7 gave digests %s and %s", a.digest, b.digest)
	}
	if a.digest == c.digest {
		t.Fatalf("seeds 7 and 8 gave the same digest %s", a.digest)
	}
}

// The counts a later change may claim a win on, and recall, must repeat
// exactly for a seed — on stream-ingest too, where merges and coalesces
// land at different moments on every run.
func TestSameSeedSameCountsAndRecall(t *testing.T) {
	counts := []string{"core.collisions_per_query", "core.unique_per_query", "core.results_per_query", "recall"}
	for _, w := range []string{"static-batch", "stream-ingest"} {
		a, b := runSmall(t, w, 11, true), runSmall(t, w, 11, true)
		for _, name := range counts {
			if a.vals[name] != b.vals[name] {
				t.Errorf("%s %s: %v then %v", w, name, a.vals[name], b.vals[name])
			}
		}
		if a.vals["recall"] <= 0 {
			t.Errorf("%s: recall %v", w, a.vals["recall"])
		}
	}
}

// Every metric a mode reports is measured on every workload it covers.
func TestEveryMetricMeasured(t *testing.T) {
	for _, w := range []string{"static-batch", "stream-ingest"} {
		for _, traced := range []bool{false, true} {
			e := runSmall(t, w, 3, traced)
			if err := e.writeFiles(t.TempDir()); err != nil {
				t.Errorf("%s traced=%v: %v", w, traced, err)
			}
		}
	}
}

// The inverted-index oracle answers exactly what the full scan does.
func TestOracleMatchesExhaustiveScan(t *testing.T) {
	in := genInputs(5, 3000, 0, 0, 200)
	o := newOracle(in.docs)
	mat := sparse.NewMatrix(dim, len(in.docs), 0)
	for _, d := range in.docs {
		mat.AppendRow(d)
	}
	live := func(int) bool { return true }
	for i, q := range in.recallQ {
		var want []int32
		for _, n := range core.ExactNeighbors(mat, q, radius) {
			want = append(want, int32(n.ID))
		}
		slices.Sort(want)
		if got := o.near(q, live); !slices.Equal(got, want) {
			t.Fatalf("query %d: oracle %v, exhaustive scan %v", i, got, want)
		}
	}
}

// The metric lists the program reports are the ones BENCHMARK.json
// declares, with the same units, in the same order.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		have []spec
		decl []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, decl.EndToEnd}, {"per_layer", perLayer, decl.PerLayer}} {
		if len(c.have) != len(c.decl) {
			t.Errorf("%s: program reports %d metrics, BENCHMARK.json declares %d", c.what, len(c.have), len(c.decl))
			continue
		}
		for i, d := range c.decl {
			if c.have[i].name != d.Name || c.have[i].unit != d.Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", c.what, i, c.have[i].name, c.have[i].unit, d.Name, d.Unit)
			}
		}
	}
}
