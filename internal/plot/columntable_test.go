package plot

import (
	"errors"
	"strings"
	"testing"
)

func sampleColumnTable() *ColumnTable {
	t := NewColumnTable("sample",
		Col{Name: "x", Prec: 2},
		Col{Name: "wide header", Prec: 4},
		Col{Name: "g", Prec: -1},
	)
	t.Append(0.05, 1.23456789, 0.5)
	t.Append(10, -2, 1.0/3)
	return t
}

func TestColumnTableRender(t *testing.T) {
	ct := sampleColumnTable()
	var sb strings.Builder
	if err := ct.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want title+header+sep+2 rows:\n%s", len(lines), out)
	}
	if lines[0] != "sample" {
		t.Errorf("title line %q", lines[0])
	}
	for _, want := range []string{"0.05", "1.2346", "-2.0000", "0.3333333333333333"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	// Alignment: the separator row mirrors the widest cell of each column.
	if !strings.Contains(out, "wide header") || !strings.Contains(out, "-----------") {
		t.Errorf("header alignment broken:\n%s", out)
	}
}

func TestColumnTableCSV(t *testing.T) {
	ct := sampleColumnTable()
	var sb strings.Builder
	if err := ct.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d CSV lines, want 3:\n%s", len(lines), sb.String())
	}
	if lines[0] != "x,wide header,g" {
		t.Errorf("header row %q", lines[0])
	}
	// CSV always uses full round-trip precision, regardless of Prec.
	if lines[1] != "0.05,1.23456789,0.5" {
		t.Errorf("row 1 = %q", lines[1])
	}
}

func TestColumnTableEmpty(t *testing.T) {
	var ct ColumnTable
	if err := ct.Render(&strings.Builder{}); !errors.Is(err, ErrNoData) {
		t.Errorf("Render err = %v, want ErrNoData", err)
	}
	if err := ct.WriteCSV(&strings.Builder{}); !errors.Is(err, ErrNoData) {
		t.Errorf("WriteCSV err = %v, want ErrNoData", err)
	}
}

func TestColumnTableArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch did not panic")
		}
	}()
	NewColumnTable("t", Col{Name: "a"}).Append(1, 2)
}

func TestTableWriteCSV(t *testing.T) {
	tab := Table{
		Headers: []string{"name", "value"},
		Rows:    [][]string{{"plain", "1"}, {`needs "quoting", yes`, "2"}},
	}
	var sb strings.Builder
	if err := tab.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "name,value\nplain,1\n\"needs \"\"quoting\"\", yes\",2\n"
	if sb.String() != want {
		t.Errorf("CSV = %q, want %q", sb.String(), want)
	}
	if err := (Table{}).WriteCSV(&sb); !errors.Is(err, ErrNoData) {
		t.Errorf("empty table err = %v, want ErrNoData", err)
	}
}

// TestTableRendererInterface pins that both table flavours satisfy the
// interface the experiments Result carries.
func TestTableRendererInterface(t *testing.T) {
	var renderers = []TableRenderer{
		Table{Headers: []string{"h"}, Rows: [][]string{{"v"}}},
		sampleColumnTable(),
	}
	for i, r := range renderers {
		var sb strings.Builder
		if err := r.Render(&sb); err != nil {
			t.Errorf("renderer %d Render: %v", i, err)
		}
		if err := r.WriteCSV(&sb); err != nil {
			t.Errorf("renderer %d WriteCSV: %v", i, err)
		}
	}
}
