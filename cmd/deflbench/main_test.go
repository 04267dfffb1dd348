package main

import (
	"bytes"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"deflation/internal/experiments"
)

func names(figs []experiments.Figure) []string {
	var out []string
	for _, f := range figs {
		out = append(out, f.Name)
	}
	return out
}

func TestUnknownFigureIsAnError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	for _, fig := range []string{"nope", "9", "", "fig"} {
		err := run([]string{"-fig", fig}, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "unknown figure") {
			t.Errorf("-fig %q: err = %v, want unknown figure", fig, err)
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("unknown figures printed output:\n%s", stdout.String())
	}
}

func TestGroupRunsItsPanelsInOrder(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-fig", "fig5", "-quick", "-progress=false"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	var ran []string
	for _, m := range regexp.MustCompile(`\(figure (\S+) regenerated in`).FindAllStringSubmatch(stdout.String(), -1) {
		ran = append(ran, m[1])
	}
	if want := []string{"5a", "5b", "5c", "5d"}; !slices.Equal(ran, want) {
		t.Errorf("fig5 ran %v, want %v", ran, want)
	}
}

func TestAllSelectsEveryInAllFigure(t *testing.T) {
	got, err := pick("all")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, f := range experiments.Figures() {
		if f.InAll {
			want = append(want, f.Name)
		}
	}
	if !slices.Equal(names(got), want) {
		t.Errorf("all = %v, want %v", names(got), want)
	}
	if slices.Contains(names(got), "8c-xl") {
		t.Error("all includes the 8c-xl scale sweep")
	}
}

// TestQuickTableMatchesGolden: a figure's quick output, minus the timing
// line, is its slice of the experiments golden file.
func TestQuickTableMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile("../../internal/experiments/testdata/figures_quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-fig", "8b", "-quick", "-progress=false"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.SplitAfter(stdout.String(), "\n") {
		if !strings.Contains(line, "regenerated in") {
			kept = append(kept, line)
		}
	}
	out := strings.Join(kept, "")
	if !strings.HasPrefix(out, "# Figure 8b") || !strings.Contains(string(golden), out) {
		t.Errorf("-fig 8b -quick output is not a slice of the golden file:\n%s", out)
	}
}
