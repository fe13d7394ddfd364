package main

import (
	"fmt"
	"io"
	"os"
)

// verdict is the outcome of comparing one metric of one workload.
type verdict string

const (
	better verdict = "better"
	within verdict = "within bound"
	worse  verdict = "worse"
)

// judge applies a metric's direction and bound: next is worse when it
// moved in the bad direction by more than bound × base, better when it
// moved in the good direction by more than that, and within bound
// otherwise. It also returns the signed share by which next is worse.
func judge(d metricDef, base, next float64) (verdict, float64) {
	if base == 0 {
		if next == 0 {
			return within, 0
		}
		return worse, 1
	}
	share := (next - base) / base
	if d.better == "higher" {
		share = -share
	}
	switch {
	case share > d.bound:
		return worse, share
	case share < -d.bound:
		return better, share
	}
	return within, share
}

// compareResults prints one row per (workload, end-to-end metric) of two
// result files and returns how many rows are worse; a rise in fail_ratio
// is always worse.
func compareResults(w io.Writer, a, b *resultFile) int {
	byName := map[string]*workloadResult{}
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	bad := 0
	fmt.Fprintf(w, "%-16s %-14s %12s %12s %8s %6s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, ra := range a.Workloads {
		rb := byName[ra.Workload]
		if rb == nil {
			fmt.Fprintf(w, "%-16s missing from the second file\n", ra.Workload)
			bad++
			continue
		}
		for _, list := range [][]metricDef{endToEnd, endToEndPartial} {
			for _, d := range list {
				va, okA := ra.EndToEnd[d.name]
				vb, okB := rb.EndToEnd[d.name]
				if !okA && !okB {
					continue
				}
				if okA != okB {
					fmt.Fprintf(w, "%-16s %-14s reported by one file only\n", ra.Workload, d.name)
					bad++
					continue
				}
				v, share := judge(d, va.Value, vb.Value)
				if v == worse {
					bad++
				}
				fmt.Fprintf(w, "%-16s %-14s %12.4f %12.4f %+7.1f%% %5.0f%%  %s\n",
					ra.Workload, d.name, va.Value, vb.Value, 100*share, 100*d.bound, v)
			}
		}
		fa, fb := failRatio(ra), failRatio(rb)
		v := within
		if fb > fa {
			v = worse
			bad++
		}
		fmt.Fprintf(w, "%-16s %-14s %12.6f %12.6f %8s %6s  %s\n", ra.Workload, "fail_ratio", fa, fb, "", "0", v)
	}
	return bad
}

func compareFiles(w io.Writer, pathA, pathB string) int {
	var files [2]*resultFile
	for i, path := range []string{pathA, pathB} {
		f, err := readResult(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		files[i] = f
	}
	if bad := compareResults(w, files[0], files[1]); bad > 0 {
		fmt.Fprintf(w, "%d rows worse\n", bad)
		return 1
	}
	return 0
}
