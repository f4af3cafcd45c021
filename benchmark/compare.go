package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// quartiles returns the cut points of xs as Python's
// statistics.quantiles(xs, n=4) gives them (exclusive method); with fewer
// than two values all three are the value itself.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64{}, xs...)
	sort.Float64s(s)
	m := len(s)
	if m == 0 {
		return 0, 0, 0
	}
	if m == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return ratio(q3-q1, math.Abs(q2))
}

// judge compares two sets of runs of one end-to-end metric. The verdict is
// "unresolved" when either side's own spread is wider than the bound: the
// runs cannot tell a change of that size from noise.
func judge(d metricDef, base, change []float64) (baseMed, changeMed, worse float64, verdict string) {
	_, baseMed, _ = quartiles(base)
	_, changeMed, _ = quartiles(change)
	worse = ratio(changeMed-baseMed, math.Abs(baseMed))
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case spread(base) > d.Bound || spread(change) > d.Bound:
		verdict = "unresolved"
	case worse > d.Bound:
		verdict = "worse"
	case worse < -d.Bound:
		verdict = "better"
	default:
		verdict = "same"
	}
	return baseMed, changeMed, worse, verdict
}

func valuesOf(f *runFile, workload string, traced bool, pick func(*result) (float64, bool)) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Traced == traced {
			if x, ok := pick(r); ok {
				out = append(out, x)
			}
		}
	}
	return out
}

// compareFiles prints one row per (end-to-end metric, workload) and the
// per-layer medians side by side. End-to-end values come from untraced runs;
// per-layer values from traced runs when the files have them, else from
// whatever runs there are.
func compareFiles(w io.Writer, basePath, changePath string) error {
	base, err := readRuns(basePath)
	if err != nil {
		return err
	}
	change, err := readRuns(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %-14s %12s %12s %8s %7s %6s  %s\n", "workload", "metric", "base", "new", "ratio", "bound", "runs", "verdict")
	for _, wl := range workloads {
		for _, d := range cat.EndToEnd {
			pick := func(r *result) (float64, bool) { x, ok := r.EndToEnd[d.Name]; return x, ok }
			b, c := valuesOf(base, wl.name, false, pick), valuesOf(change, wl.name, false, pick)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			bm, cm, _, verdict := judge(d, b, c)
			fmt.Fprintf(w, "%-16s %-14s %12.4f %12.4f %8.3f %6.0f%% %3d/%-3d %s\n",
				wl.name, d.Name, bm, cm, ratio(cm, bm), 100*d.Bound, len(b), len(c), verdict)
		}
	}
	fmt.Fprintf(w, "\n%-16s %-30s %14s %14s %8s\n", "workload", "layer metric", "base", "new", "ratio")
	for _, wl := range workloads {
		for _, traced := range []bool{true, false} {
			printed := false
			for _, d := range cat.PerLayer {
				pick := func(r *result) (float64, bool) { x, ok := r.PerLayer[d.Name]; return x, ok }
				b, c := valuesOf(base, wl.name, traced, pick), valuesOf(change, wl.name, traced, pick)
				if len(b) == 0 || len(c) == 0 {
					continue
				}
				_, bm, _ := quartiles(b)
				_, cm, _ := quartiles(c)
				if bm == 0 && cm == 0 {
					continue
				}
				printed = true
				fmt.Fprintf(w, "%-16s %-30s %14.4f %14.4f %8.3f\n", wl.name, d.Name, bm, cm, ratio(cm, bm))
			}
			if printed {
				break
			}
		}
	}
	return nil
}
