package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json -agree needs: the
// end-to-end metrics with their regression bounds.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAgree runs every workload twice, alternating (A B C D A B C D),
// each in its own process, and fails if any end-to-end metric of the
// second set differs from the first by more than its BENCHMARK.json
// bound, in either direction: two sets of runs of the same code must
// agree before a difference between two commits can mean anything.
func runAgree(seed int64, seconds float64, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench: -agree runs from the repository root:", err)
		return 2
	}
	var decl benchmarkFile
	if err := json.Unmarshal(raw, &decl); err != nil {
		fmt.Fprintln(stderr, "bench: BENCHMARK.json:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var sets [2]map[string]*report
	for s := range sets {
		sets[s] = map[string]*report{}
		for _, w := range workloadNames {
			fmt.Fprintf(stderr, "agree: set %d, %s\n", s+1, w)
			cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
			cmd.Stderr = stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s failed: %v\n", w, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			rep := &report{}
			if err := json.Unmarshal(lines[len(lines)-1], rep); err != nil || !rep.Correct {
				fmt.Fprintf(stderr, "bench: %s: no correct result line (%v)\n", w, err)
				return 1
			}
			sets[s][w] = rep
		}
	}
	disagreements := 0
	fmt.Fprintf(stdout, "%-24s %-24s %14s %14s %9s %7s\n", "workload", "metric", "set 1 (base)", "set 2", "set2/set1", "bound")
	for _, w := range workloadNames {
		for _, m := range decl.EndToEnd {
			a, b := sets[0][w].Metrics[m.Name].Value, sets[1][w].Metrics[m.Name].Value
			verdict := ""
			if a == 0 || math.Abs(b-a)/a > m.Bound {
				verdict = "  DISAGREE"
				disagreements++
			}
			fmt.Fprintf(stdout, "%-24s %-24s %14.6g %14.6g %9.4f %6.0f%%%s\n", w, m.Name, a, b, b/a, 100*m.Bound, verdict)
		}
	}
	if disagreements > 0 {
		fmt.Fprintf(stdout, "agree: %d metrics differ between the two sets by more than their bound\n", disagreements)
		return 1
	}
	fmt.Fprintln(stdout, "agree: every end-to-end metric of set 2 is within its bound of set 1")
	return 0
}
