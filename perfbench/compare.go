package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// compareMain summarizes the run records under one directory (median and
// quartile spread per workload and metric) or compares two directories
// metric by metric against the bounds in BENCHMARK.json. It refuses to
// compare records taken on different CPU counts.
func compareMain(w io.Writer, dirs []string) int {
	if len(dirs) < 1 || len(dirs) > 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --compare DIR [DIR]")
		return 2
	}
	sets := make([][]record, len(dirs))
	for i, d := range dirs {
		recs, err := loadRecords(d)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		if len(recs) == 0 {
			fmt.Fprintf(os.Stderr, "perfbench: no run records under %s\n", d)
			return 2
		}
		sets[i] = recs
	}
	first := sets[0][0].Stamp
	for _, recs := range sets {
		for _, r := range recs {
			if r.Stamp.NumCPU != first.NumCPU || r.Stamp.GOMAXPROCS != first.GOMAXPROCS {
				fmt.Fprintf(os.Stderr, "perfbench: refusing to compare results from %d CPUs (GOMAXPROCS %d) with results from %d CPUs (GOMAXPROCS %d)\n",
					first.NumCPU, first.GOMAXPROCS, r.Stamp.NumCPU, r.Stamp.GOMAXPROCS)
				return 2
			}
		}
	}
	bounds := loadBounds("BENCHMARK.json")
	groups := map[string][]map[string][]float64{}
	for i, recs := range sets {
		for _, r := range recs {
			key := fmt.Sprintf("%s trace=%v", r.Workload, r.Trace)
			if groups[key] == nil {
				groups[key] = make([]map[string][]float64, len(sets))
			}
			if groups[key][i] == nil {
				groups[key][i] = map[string][]float64{}
			}
			for name, m := range r.Result.Metrics {
				groups[key][i][name] = append(groups[key][i][name], m.Value)
			}
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	status := 0
	for _, k := range keys {
		fmt.Fprintf(w, "%s\n", k)
		a := groups[k][0]
		var names []string
		for name := range a {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ma, sa := medianSpread(a[name])
			line := fmt.Sprintf("  %-40s n=%-2d median=%-12.5g spread=%5.1f%%", name, len(a[name]), ma, 100*sa)
			b, ok := bounds[name]
			if ok && name != "setup_s" && sa > b.Bound {
				line += " SPREAD>BOUND"
				status = 1
			}
			if len(sets) == 2 && groups[k][1] != nil {
				vb := groups[k][1][name]
				mb, sb := medianSpread(vb)
				change := 0.0
				if ma != 0 {
					change = mb/ma - 1
				}
				line += fmt.Sprintf(" | n=%-2d median=%-12.5g spread=%5.1f%% change=%+6.1f%%", len(vb), mb, 100*sb, 100*change)
				if ok {
					worse := change
					if b.Better == "higher" {
						worse = -change
					}
					if worse > b.Bound {
						line += " WORSE>BOUND"
						status = 1
					}
				}
			}
			fmt.Fprintln(w, line)
		}
	}
	return status
}

func loadRecords(dir string) ([]record, error) {
	var recs []record
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var r record
		if json.Unmarshal(b, &r) == nil && r.Workload != "" {
			recs = append(recs, r)
		}
		return nil
	})
	return recs, err
}

type bound struct {
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBounds reads the end-to-end bounds; without the file, comparisons
// print changes but judge none.
func loadBounds(path string) map[string]bound {
	var spec struct {
		EndToEnd []struct {
			Name string `json:"name"`
			bound
		} `json:"end_to_end"`
	}
	out := map[string]bound{}
	b, err := os.ReadFile(path)
	if err != nil || json.Unmarshal(b, &spec) != nil {
		return out
	}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.bound
	}
	return out
}

// medianSpread returns the median of xs and the distance between its first
// and third quartiles as a share of the median, with quartiles computed as
// Python's statistics.quantiles(xs, n=4) computes them.
func medianSpread(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med := median(s)
	if len(s) < 2 || med == 0 {
		return med, 0
	}
	q := func(i int) float64 {
		n, m := 4, len(s)+1
		j := i * m / n
		j = max(1, min(j, len(s)-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return med, (q(3) - q(1)) / med
}
