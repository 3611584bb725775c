package main

import (
	"strings"
	"testing"
)

func TestParseFoldsRepeatsToMedian(t *testing.T) {
	in := `goos: linux
pkg: nnbaton
BenchmarkSearchLayerPruned-2   	     500	   2600000 ns/op	  964000 B/op	    3032 allocs/op
BenchmarkKernelTrafficAt-2     	90000000	        20 ns/op
BenchmarkSearchLayerPruned-2   	     300	   9100000 ns/op	  965000 B/op	    3040 allocs/op
BenchmarkSearchLayerPruned-2   	     400	   2700000 ns/op	  963000 B/op	    3031 allocs/op
PASS
`
	rep, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	pr := rep.Benchmarks[0]
	if pr.Name != "BenchmarkSearchLayerPruned" || pr.Runs != 3 || pr.Iterations != 400 {
		t.Errorf("folded entry = %+v, want the pruned search over 3 runs with median 400 iterations", pr)
	}
	// The median ignores the one slow run that a mean would carry.
	want := map[string]float64{"ns/op": 2700000, "B/op": 964000, "allocs/op": 3032}
	for k, v := range want {
		if pr.Metrics[k] != v {
			t.Errorf("%s = %v, want %v", k, pr.Metrics[k], v)
		}
	}
	if k := rep.Benchmarks[1]; k.Name != "BenchmarkKernelTrafficAt" || k.Runs != 0 || k.Metrics["ns/op"] != 20 {
		t.Errorf("single-run entry = %+v, want it kept as parsed", k)
	}
}

func TestMedianEvenCount(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
