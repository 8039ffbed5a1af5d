package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestExperimentsDocMatchesGenerators compares the Table 1, 2 and 3
// blocks committed in EXPERIMENTS.md with what the generators print at
// scale 1, so the document cannot drift from the code. Table 1's t(ms)
// column is a timing and is left out.
func TestExperimentsDocMatchesGenerators(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	rows1, err := Table1(1)
	if err != nil {
		t.Fatal(err)
	}
	var t1 bytes.Buffer
	WriteTable1(&t1, rows1)
	compareBlock(t, doc, "## Table 1", t1.String(), dropLastColumn)

	rows2, sum2, err := Table2(1)
	if err != nil {
		t.Fatal(err)
	}
	var t2 bytes.Buffer
	WriteTaskTable(&t2, "Table 2", rows2, sum2)
	compareBlock(t, doc, "## Table 2", t2.String(), nil)

	rows3, sum3, err := Table3(1)
	if err != nil {
		t.Fatal(err)
	}
	var t3 bytes.Buffer
	WriteTaskTable(&t3, "Table 3", rows3, sum3)
	compareBlock(t, doc, "## Table 3", t3.String(), nil)
}

// compareBlock compares the first fenced block after heading in doc
// with generated, whose first line is the table's title and is not in
// the block. norm, when non-nil, rewrites each line of both first.
func compareBlock(t *testing.T, doc []byte, heading, generated string, norm func(string) string) {
	t.Helper()
	at := bytes.Index(doc, []byte("\n"+heading))
	if at < 0 {
		t.Fatalf("EXPERIMENTS.md has no %q section", heading)
	}
	rest := string(doc[at:])
	open := strings.Index(rest, "\n```\n")
	if open < 0 {
		t.Fatalf("%s: no fenced block", heading)
	}
	rest = rest[open+len("\n```\n"):]
	end := strings.Index(rest, "```")
	if end < 0 {
		t.Fatalf("%s: unterminated fenced block", heading)
	}
	got := strings.Split(strings.TrimRight(rest[:end], "\n"), "\n")
	want := strings.Split(strings.TrimRight(generated, "\n"), "\n")[1:]
	if norm != nil {
		for i := range got {
			got[i] = norm(got[i])
		}
		for i := range want {
			want[i] = norm(want[i])
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("%s in EXPERIMENTS.md differs from the generator at scale 1; paste `go run ./cmd/experiments` output.\ncommitted:\n%s\ngenerated:\n%s",
			heading, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// dropLastColumn removes a line's last whitespace-separated field.
func dropLastColumn(line string) string {
	line = strings.TrimRight(line, " ")
	if i := strings.LastIndex(line, " "); i >= 0 {
		return strings.TrimRight(line[:i], " ")
	}
	return ""
}
