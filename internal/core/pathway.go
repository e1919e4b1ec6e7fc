package core

import (
	"fmt"
	"os"
	"time"

	"repro/internal/notebook"
	"repro/internal/trovi"
)

// tempTubDir allocates a scratch directory for generated tubs.
func tempTubDir() (string, error) {
	dir, err := os.MkdirTemp("", "autolearn-tub-*")
	if err != nil {
		return "", fmt.Errorf("core: temp tub dir: %w", err)
	}
	return dir, nil
}

// BuildNotebook assembles the module's instructional notebook: the cell
// sequence of §3.5, one code cell per pipeline stage, which is how
// AutoLearn packages its artifacts for Trovi.
func (p *Pipeline) BuildNotebook() *notebook.Notebook {
	return notebook.New("autolearn-" + string(p.M.Cfg.Pathway)).
		AddMarkdown("# AutoLearn: Learning in the Edge to Cloud Continuum\n" +
			"Work through the cells in order: collect → clean → train → evaluate.").
		AddCode("collect-data").
		AddCode("clean-data").
		AddCode("reserve-train").
		AddCode("evaluate-model")
}

// PublishToTrovi exports the notebook and publishes it as a Trovi artifact
// authored by the module's team, returning the artifact.
func (p *Pipeline) PublishToTrovi(nb *notebook.Notebook, at time.Time) (*trovi.Artifact, error) {
	payload, err := nb.Export()
	if err != nil {
		return nil, err
	}
	a, err := p.M.Trovi.Publish("AutoLearn: Learning in the Edge to Cloud Continuum",
		[]string{"Esquivel Morel", "Fowler", "Keahey", "Zheng", "Sherman", "Anderson"},
		payload, at)
	if err != nil {
		return nil, err
	}
	if err := p.M.Trovi.SetMetadata(a.ID,
		"Educational module: DonkeyCar on Chameleon/CHI@Edge",
		[]string{"education", "edge", "machine-learning", "chameleon"}); err != nil {
		return nil, err
	}
	return a, nil
}
