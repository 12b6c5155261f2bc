package report

import (
	"bytes"
	"strings"
	"testing"

	"relperf/internal/compare"
	"relperf/internal/core"
)

func fig2Cmp(i, j int) (compare.Outcome, error) {
	class := []int{2, 1, 2, 0} // DD, AA, DA, AD
	switch {
	case class[i] < class[j]:
		return compare.Better, nil
	case class[i] > class[j]:
		return compare.Worse, nil
	default:
		return compare.Equivalent, nil
	}
}

// fig2Fork hands every clustering repetition the deterministic fig2Cmp.
func fig2Fork(uint64) core.CompareFunc { return fig2Cmp }

var names = []string{"DD", "AA", "DA", "AD"}

func TestTableRender(t *testing.T) {
	tbl := NewTable("A", "Blong", "C")
	tbl.AddRow("x", "y")
	tbl.AddRow("longer", "z", "w")
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "A") || !strings.Contains(lines[0], "Blong") {
		t.Fatalf("header wrong: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Fatalf("separator wrong: %q", lines[1])
	}
	if !strings.HasPrefix(lines[3], "longer") {
		t.Fatalf("row wrong: %q", lines[3])
	}
}

func TestClusterTable(t *testing.T) {
	res, err := core.Cluster(4, core.ClusterOptions{Reps: 20, Seed: 1, Fork: fig2Fork})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ClusterTable(&buf, res, names); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"C1", "AD", "1.00", "C3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFinalTable(t *testing.T) {
	res, _ := core.Cluster(4, core.ClusterOptions{Reps: 20, Seed: 1, Fork: fig2Fork})
	fa, err := res.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := FinalTable(&buf, fa, names); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "AD") || !strings.Contains(buf.String(), "C1") {
		t.Fatalf("final table wrong:\n%s", buf.String())
	}
}

func TestSummaryTable(t *testing.T) {
	samples := [][]float64{
		{0.010, 0.011, 0.012},
		{0.020, 0.021, 0.022},
	}
	var buf bytes.Buffer
	if err := SummaryTable(&buf, []string{"fast", "slow"}, samples); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fast") || !strings.Contains(out, "11.000") {
		t.Fatalf("summary wrong:\n%s", out)
	}
}

func TestHistograms(t *testing.T) {
	samples := [][]float64{
		{0.010, 0.0101, 0.0102, 0.0103},
		{0.020, 0.0201, 0.0202},
	}
	var buf bytes.Buffer
	if err := Histograms(&buf, []string{"a", "b"}, samples, 10, 20); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "a (N=4)") || !strings.Contains(out, "#") {
		t.Fatalf("histograms wrong:\n%s", out)
	}
	// Defaults apply for non-positive bins/width.
	buf.Reset()
	if err := Histograms(&buf, []string{"a"}, samples[:1], 0, 0); err != nil {
		t.Fatal(err)
	}
	// Degenerate constant sample must not panic.
	buf.Reset()
	if err := Histograms(&buf, []string{"c"}, [][]float64{{1, 1, 1}}, 5, 10); err != nil {
		t.Fatal(err)
	}
}

func TestSortTrace(t *testing.T) {
	res, err := core.Sort(4, fig2Cmp, core.SortOptions{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SortTrace(&buf, res, names); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "step 1") || !strings.Contains(out, "swap") {
		t.Fatalf("trace wrong:\n%s", out)
	}
	if !strings.Contains(out, "merge↓") || !strings.Contains(out, "split↑") {
		t.Fatalf("rank shifts missing:\n%s", out)
	}
}

func TestRankedNames(t *testing.T) {
	res, _ := core.Cluster(4, core.ClusterOptions{Reps: 20, Seed: 1, Fork: fig2Fork})
	fa, _ := res.Finalize()
	ranked := RankedNames(fa, names)
	if ranked[0] != "AD(C1)" {
		t.Fatalf("ranked = %v", ranked)
	}
	if len(ranked) != 4 {
		t.Fatalf("ranked = %v", ranked)
	}
}

func TestAlgNameFallback(t *testing.T) {
	if algName(names, 99) != "alg99" {
		t.Fatal("fallback name wrong")
	}
}
