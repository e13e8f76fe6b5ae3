package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareFiles prints, per workload and end-to-end metric, both files'
// medians and quartiles, the change, the bound, and a verdict:
//
//	ok          new median no worse than old by more than the bound
//	regressed   worse by more than the bound
//	unresolved  either side's run-to-run spread (Q3-Q1 over the median) is
//	            wider than the bound, so the files cannot settle it
//
// The bound is the driver's gate and is as wide as this host's drift makes
// it. The "x spread" column is the change over the old side's own quartile
// distance: a before/after row resolves a change once that exceeds 1, the
// rule for claiming a gain, however wide the bound is.
//
// It returns 1 when any row regressed.
func compareFiles(w io.Writer, oldPath, newPath string) int {
	oldFile, err := readResultFile(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	newFile, err := readResultFile(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	return compareResults(w, oldFile, newFile)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one end-to-end metric's values over a file's untraced
// runs of one workload.
func (f *resultFile) values(workload, name string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace {
			out = append(out, m.Value)
		}
	}
	return out
}

func compareResults(w io.Writer, oldFile, newFile *resultFile) int {
	for _, side := range []struct {
		name string
		f    *resultFile
	}{{"old", oldFile}, {"new", newFile}} {
		fp := side.f.Fingerprint
		fmt.Fprintf(w, "%s: commit %s, %s, nproc %d, GOMAXPROCS %d, device.sync_us_p50 %.1f, %s\n",
			side.name, fp.Commit, fp.GoVersion, fp.NumCPU, fp.GOMAXPROCS, fp.SyncUSP50, fp.Time)
	}
	if o, n := oldFile.Fingerprint, newFile.Fingerprint; o.NumCPU != n.NumCPU || o.GoVersion != n.GoVersion {
		fmt.Fprintln(w, "WARNING: the two files were measured on different hosts or toolchains")
	}
	fmt.Fprintf(w, "%-14s %-27s %5s %12s %25s %12s %25s %8s %8s %6s  %s\n", "workload", "metric", "n",
		"old median", "old [q1, q3]", "new median", "new [q1, q3]", "change", "x spread", "bound", "verdict")
	code := 0
	for _, wl := range workloads {
		for _, m := range endToEnd {
			ov, nv := oldFile.values(wl.Name, m.Name), newFile.values(wl.Name, m.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			oq1, omed, oq3 := quartiles(ov)
			nq1, nmed, nq3 := quartiles(nv)
			// worse is the change in the metric's bad direction, as a
			// share of the old median.
			worse := (nmed - omed) / omed
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case (oq3-oq1)/omed > m.Bound || (nq3-nq1)/nmed > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				code = 1
			}
			overSpread := "-"
			if oq3 > oq1 {
				overSpread = fmt.Sprintf("%.1f", math.Abs(nmed-omed)/(oq3-oq1))
			}
			fmt.Fprintf(w, "%-14s %-27s %5s %12.6g %25s %12.6g %25s %+7.1f%% %8s %5.0f%%  %s\n",
				wl.Name, m.Name, fmt.Sprintf("%d/%d", len(ov), len(nv)),
				omed, fmt.Sprintf("[%.6g, %.6g]", oq1, oq3),
				nmed, fmt.Sprintf("[%.6g, %.6g]", nq1, nq3),
				(nmed-omed)/omed*100, overSpread, m.Bound*100, verdict)
		}
	}
	return code
}
