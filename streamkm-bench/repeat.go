package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// runLine is one run as the repeat mode stores it, one JSON object per
// line.
type runLine struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Record    *runRecord             `json:"record"`
}

// repeatMain runs one workload --runs times, seeds --seed, --seed+1, ...,
// appends every run to --out and prints each metric's median and
// quartiles.
func repeatMain(args []string) error {
	var c config
	fs := flag.NewFlagSet("repeat", flag.ContinueOnError)
	c.flags(fs)
	runs := fs.Int("runs", 10, "number of runs")
	out := fs.String("out", "", "append each run as a JSON line to this file")
	traceN := fs.Int("trace", 0, "1: traced runs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c.trace = *traceN == 1
	spec, err := loadSpec(c.spec)
	if err != nil {
		return err
	}
	var f *os.File
	if *out != "" {
		if f, err = os.OpenFile(*out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644); err != nil {
			return err
		}
		defer f.Close()
	}
	var lines []runLine
	first := c.seed
	for i := 0; i < *runs; i++ {
		c.seed = first + int64(i)
		res, err := runOnce(c)
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, c.seed, err)
		}
		l := runLine{Workload: c.workload, Seed: c.seed, Correct: res.Correct, Attempted: res.Attempted,
			Failed: res.Failed, Metrics: res.Metrics, Record: res.Record}
		lines = append(lines, l)
		if f != nil {
			b, err := json.Marshal(l)
			if err != nil {
				return err
			}
			if _, err := f.Write(append(b, '\n')); err != nil {
				return fmt.Errorf("write %s: %w", *out, err)
			}
		}
		fmt.Fprintf(os.Stderr, "run %d/%d seed %d correct=%v\n", i+1, *runs, c.seed, res.Correct)
	}
	if f != nil {
		if err := f.Close(); err != nil {
			return fmt.Errorf("close %s: %w", *out, err)
		}
	}
	defs := spec.EndToEnd
	if c.trace {
		defs = spec.PerLayer
	}
	summarize(os.Stdout, c.workload, lines, defs)
	return nil
}

func values(lines []runLine, name string) []float64 {
	var xs []float64
	for _, l := range lines {
		if v, ok := l.Metrics[name]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// summarize prints median, quartiles and spread (IQR over median) per
// metric, flagging a spread wider than the metric's bound.
func summarize(w io.Writer, workload string, lines []runLine, defs []metricDef) {
	fmt.Fprintf(w, "%s: %d runs\n", workload, len(lines))
	fmt.Fprintf(w, "  %-28s %14s %14s %14s %8s %7s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, d := range defs {
		xs := values(lines, d.Name)
		if len(xs) == 0 {
			continue
		}
		q1, q2, q3 := quartiles(xs)
		sp := spread(xs)
		flagS := ""
		if d.Bound > 0 && sp > d.Bound {
			flagS = "  unresolved: spread wider than bound"
		}
		fmt.Fprintf(w, "  %-28s %14.6g %14.6g %14.6g %7.1f%% %6.0f%%%s\n", d.Name, q1, q2, q3, 100*sp, 100*d.Bound, flagS)
	}
}

func readLines(path string) ([]runLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runLine
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var l runLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, l)
	}
	return out, sc.Err()
}

// verdict is the comparison of one metric on one workload.
type verdict struct {
	Metric   string
	Base     [3]float64 // q1, median, q3
	Head     [3]float64
	Wins     int
	Pairs    int
	Decision string
}

// better reports whether a beats b for a metric whose better direction
// is dir ("higher" or "lower").
func better(dir string, a, b float64) bool {
	if dir == "higher" {
		return a > b
	}
	return a < b
}

// compareMetric applies the paired rule. The head claims a gain when it
// wins at least 9/10 of the pairs (ties count for neither) and the
// medians differ by more than the base's interquartile range. It
// regresses when its median is worse than the base's by more than the
// bound. A spread wider than the bound on either side leaves the metric
// unresolved, unless every head run beats every base run.
func compareMetric(d metricDef, base, head []float64) verdict {
	v := verdict{Metric: d.Name, Pairs: min(len(base), len(head))}
	v.Base[0], v.Base[1], v.Base[2] = quartiles(base)
	v.Head[0], v.Head[1], v.Head[2] = quartiles(head)
	for i := 0; i < v.Pairs; i++ {
		if better(d.Better, head[i], base[i]) {
			v.Wins++
		}
	}
	gain := v.Pairs > 0 && float64(v.Wins) >= 0.9*float64(v.Pairs) &&
		math.Abs(v.Head[1]-v.Base[1]) > v.Base[2]-v.Base[0] && better(d.Better, v.Head[1], v.Base[1])
	dominates := len(head) > 0 && len(base) > 0
	for _, h := range head {
		for _, b := range base {
			if !better(d.Better, h, b) {
				dominates = false
			}
		}
	}
	worse := v.Base[1] - v.Head[1]
	if d.Better == "lower" {
		worse = -worse
	}
	switch {
	case gain:
		v.Decision = "improved"
	case d.Bound > 0 && (spread(base) > d.Bound || spread(head) > d.Bound) && !dominates:
		v.Decision = "unresolved"
	case d.Bound > 0 && worse > d.Bound*math.Abs(v.Base[1]):
		v.Decision = "regressed"
	default:
		v.Decision = "unchanged"
	}
	return v
}

// compareMain compares two repeat files run by run, per workload.
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: compare [--spec BENCHMARK.json] base.jsonl head.jsonl")
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	base, err := readLines(fs.Arg(0))
	if err != nil {
		return err
	}
	head, err := readLines(fs.Arg(1))
	if err != nil {
		return err
	}
	byWL := func(ls []runLine) map[string][]runLine {
		m := map[string][]runLine{}
		for _, l := range ls {
			m[l.Workload] = append(m[l.Workload], l)
		}
		return m
	}
	bw, hw := byWL(base), byWL(head)
	names := make([]string, 0, len(bw))
	for n := range bw {
		names = append(names, n)
	}
	sort.Strings(names)
	defs := append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...)
	for _, n := range names {
		b, h := bw[n], hw[n]
		if len(h) == 0 {
			continue
		}
		fmt.Printf("%s: %d base runs, %d head runs\n", n, len(b), len(h))
		fmt.Printf("  %-28s %12s %12s %7s %s\n", "metric", "base median", "head median", "wins", "decision")
		for _, d := range defs {
			bv, hv := values(b, d.Name), values(h, d.Name)
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			v := compareMetric(d, bv, hv)
			fmt.Printf("  %-28s %12.6g %12.6g %3d/%-3d %s\n", d.Name, v.Base[1], v.Head[1], v.Wins, v.Pairs, v.Decision)
		}
	}
	return nil
}
