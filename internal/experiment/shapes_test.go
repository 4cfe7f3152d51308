package experiment

import (
	"strings"
	"testing"
)

func TestShapeChecksCoverEveryExperiment(t *testing.T) {
	checks := ShapeChecks()
	for _, e := range Registry() {
		if _, ok := checks[e.ID]; !ok {
			t.Errorf("no shape check for %s", e.ID)
		}
	}
	if len(checks) != len(Registry()) {
		t.Errorf("%d checks for %d experiments", len(checks), len(Registry()))
	}
}

func TestCellParsing(t *testing.T) {
	tab := &Table{ID: "T", Columns: []string{"a", "b"}}
	tab.AddRow(1, 2.5)
	if v, err := cell(tab, 0, "b"); err != nil || v != 2.5 {
		t.Fatalf("cell = %v, %v", v, err)
	}
	if _, err := cell(tab, 0, "zzz"); err == nil {
		t.Fatal("missing column accepted")
	}
	if _, err := cell(tab, 5, "a"); err == nil {
		t.Fatal("row out of range accepted")
	}
	tab.AddRow("notanumber", 1)
	if _, err := cell(tab, 1, "a"); err == nil {
		t.Fatal("non-numeric cell accepted")
	}
	col, err := column(tab, "b")
	if err != nil || len(col) != 2 {
		t.Fatalf("column = %v, %v", col, err)
	}
}

func TestShapeCheckRejectsBadTables(t *testing.T) {
	// A hand-built E1 table with a speedup below 1 must fail.
	tab := &Table{ID: "E1", Columns: []string{"n", "D", "t_KP_knownD", "t_KP", "t_BGI", "speedup_knownD", "speedup", "model_speedup"}}
	tab.AddRow(1024, 64, 500.0, 600.0, 450.0, 0.9, 0.75, 2.0)
	err := checkE1(tab)
	if err == nil || !strings.Contains(err.Error(), "want > 1") {
		t.Fatalf("bad E1 accepted: %v", err)
	}
}
