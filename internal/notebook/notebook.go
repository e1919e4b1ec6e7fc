// Package notebook is AutoLearn's artifact format: the instructional
// artifacts are "a series of Jupyter notebooks" whose cells mix
// explanatory text with executable steps ("students can launch a
// container on the car's Raspberry Pi simply by executing one cell").
// A notebook is the ordered cell list that serializes to JSON for sharing
// through the Trovi hub.
package notebook

import "encoding/json"

// CellKind distinguishes text from executable cells.
type CellKind string

// Cell kinds.
const (
	Markdown CellKind = "markdown"
	Code     CellKind = "code"
)

// Cell is one notebook cell.
type Cell struct {
	Kind   CellKind `json:"kind"`
	Source string   `json:"source"` // markdown text, or a display label for code cells
}

// Notebook is an ordered list of cells.
type Notebook struct {
	Name  string `json:"name"`
	Cells []Cell `json:"cells"`
}

// New creates an empty notebook.
func New(name string) *Notebook { return &Notebook{Name: name} }

// AddMarkdown appends a text cell.
func (n *Notebook) AddMarkdown(text string) *Notebook {
	n.Cells = append(n.Cells, Cell{Kind: Markdown, Source: text})
	return n
}

// AddCode appends an executable cell with a display label.
func (n *Notebook) AddCode(label string) *Notebook {
	n.Cells = append(n.Cells, Cell{Kind: Code, Source: label})
	return n
}

// Export serializes the notebook to JSON (the Trovi/GitBook
// import-export pathway of §4).
func (n *Notebook) Export() ([]byte, error) {
	return json.MarshalIndent(n, "", "  ")
}
