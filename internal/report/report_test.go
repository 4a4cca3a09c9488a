package report

import (
	"strings"
	"testing"
)

func sample() *Table {
	t := &Table{
		Title:   "Demo",
		Headers: []string{"Country", "Median", "Note"},
	}
	t.AddRow("PAK", 389.0, "HR eSIM")
	t.AddRow("DEU", 47.5, "IHBO")
	return t
}

func TestTableString(t *testing.T) {
	s := sample().String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 { // title + header + rule + 2 rows = 5? title(1)+header(1)+rule(1)+rows(2)=5
		if len(lines) != 5 {
			t.Fatalf("lines = %d:\n%s", len(lines), s)
		}
	}
	if lines[0] != "Demo" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "Country") || !strings.Contains(lines[1], "Median") {
		t.Errorf("header line = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "---") {
		t.Errorf("rule line = %q", lines[2])
	}
	// Column alignment: "Median" values start at the same offset.
	idx1 := strings.Index(lines[3], "389.00")
	idx2 := strings.Index(lines[4], "47.50")
	if idx1 != idx2 {
		t.Errorf("misaligned columns: %d vs %d\n%s", idx1, idx2, s)
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tab := &Table{Headers: []string{"v"}}
	tab.AddRow(3.14159)
	tab.AddRow(42) // int keeps %v
	if tab.Rows[0][0] != "3.14" {
		t.Errorf("float cell = %q", tab.Rows[0][0])
	}
	if tab.Rows[1][0] != "42" {
		t.Errorf("int cell = %q", tab.Rows[1][0])
	}
}

func TestCSVQuoting(t *testing.T) {
	tab := &Table{Headers: []string{"a", "b"}}
	tab.AddRow(`with,comma`, `with "quote"`)
	csv := tab.CSV()
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if lines[0] != "a,b" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != `"with,comma","with ""quote"""` {
		t.Errorf("quoted row = %q", lines[1])
	}
}

func TestCSVPlain(t *testing.T) {
	csv := sample().CSV()
	if !strings.Contains(csv, "PAK,389.00,HR eSIM\n") {
		t.Errorf("csv:\n%s", csv)
	}
	if strings.Contains(csv, "Demo") {
		t.Error("CSV should not include the title")
	}
}

func TestSeriesCSV(t *testing.T) {
	out := SeriesCSV([]Series{
		{Name: "PAK", X: []float64{1, 2}, Y: []float64{0.5, 1}},
		{Name: "ARE", X: []float64{3}, Y: []float64{1}},
	})
	want := "series,x,y\nPAK,1,0.5\nPAK,2,1\nARE,3,1\n"
	if out != want {
		t.Errorf("got:\n%s\nwant:\n%s", out, want)
	}
	// Ragged series truncate to the shorter side.
	out = SeriesCSV([]Series{{Name: "r", X: []float64{1, 2, 3}, Y: []float64{9}}})
	if strings.Count(out, "\n") != 2 {
		t.Errorf("ragged series output:\n%s", out)
	}
}

func TestFormatters(t *testing.T) {
	if Pct(0.145) != "14.5%" {
		t.Errorf("Pct = %s", Pct(0.145))
	}
}

func TestEmptyTable(t *testing.T) {
	tab := &Table{Headers: []string{"only"}}
	s := tab.String()
	if !strings.Contains(s, "only") || !strings.Contains(s, "----") {
		t.Errorf("empty table render:\n%s", s)
	}
}
