package notebook

import (
	"encoding/json"
	"testing"
)

func TestExportRoundTrip(t *testing.T) {
	n := New("autolearn-data-collection").
		AddMarkdown("# Collecting data\nDrive the car to collect records.").
		AddCode("reserve-hardware").
		AddCode("launch-container")
	data, err := n.Export()
	if err != nil {
		t.Fatal(err)
	}
	var back Notebook
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != n.Name || len(back.Cells) != 3 {
		t.Fatalf("lost structure: %s %d", back.Name, len(back.Cells))
	}
	for i, c := range n.Cells {
		if back.Cells[i] != c {
			t.Errorf("cell %d = %+v, want %+v", i, back.Cells[i], c)
		}
	}
}
