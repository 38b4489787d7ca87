package sim

import (
	"fmt"

	"repro/internal/align"
	"repro/internal/bsm"
	"repro/internal/codon"
	"repro/internal/newick"
)

// Preset describes one of the paper's Table II evaluation datasets by
// its workload shape. The original Ensembl alignments (release 55/61,
// Selectome) are substituted by simulation with the same dimensions;
// see the package comment.
type Preset struct {
	// ID is the paper's roman-numeral dataset label.
	ID string
	// Description mirrors Table II's characterization.
	Description string
	// Species and Codons are Table II's dimensions.
	Species int
	Codons  int
	// MeanBranchLength scales the simulated tree; denser taxon
	// sampling (datasets iii, iv) means shorter branches, as in real
	// gene trees.
	MeanBranchLength float64
}

// TableII lists the paper's four datasets:
//
//	i   ENSGT00390000016702.Primates.1.2        7 × 299
//	ii  ENSGT00580000081590.Primates.1.2        6 × 5004
//	iii ENSGT00550000073950.Euteleostomi.7.2   25 × 67
//	iv  ENSGT00530000063518.Primates.1.1       95 × 39
var TableII = []Preset{
	{ID: "i", Description: "small number of species / average sequence length", Species: 7, Codons: 299, MeanBranchLength: 0.10},
	{ID: "ii", Description: "small number of species / very large sequence length", Species: 6, Codons: 5004, MeanBranchLength: 0.10},
	{ID: "iii", Description: "average number of species / small sequence length", Species: 25, Codons: 67, MeanBranchLength: 0.06},
	{ID: "iv", Description: "large number of species / short sequence length", Species: 95, Codons: 39, MeanBranchLength: 0.04},
}

// PresetByID returns the Table II preset with the given label.
func PresetByID(id string) (Preset, error) {
	for _, p := range TableII {
		if p.ID == id {
			return p, nil
		}
	}
	return Preset{}, fmt.Errorf("sim: unknown dataset %q (want i, ii, iii or iv)", id)
}

// TrueParams are the generating parameters used for all presets: a
// realistic positive-selection scenario (ω2 > 1 on the foreground
// branch) in the range Selectome analyses report.
func TrueParams() bsm.Params {
	return bsm.Params{Kappa: 2.0, Omega0: 0.10, Omega2: 2.5, P0: 0.50, P1: 0.35}
}

// Dataset is a generated benchmark instance.
type Dataset struct {
	Preset    Preset
	Tree      *newick.Tree
	Alignment *align.Alignment
}

// Generate builds the preset's tree and alignment deterministically
// from the seed.
func (p Preset) Generate(seed int64) (*Dataset, error) {
	return p.GenerateWithSpecies(seed, p.Species)
}

// GenerateWithSpecies builds a variant of the preset with a different
// species count (the paper's Fig. 3 sweeps dataset iv over 15–95
// species while keeping everything else fixed).
func (p Preset) GenerateWithSpecies(seed int64, species int) (*Dataset, error) {
	t, err := RandomTree(TreeConfig{
		Species:          species,
		MeanBranchLength: p.MeanBranchLength,
		Seed:             seed,
	})
	if err != nil {
		return nil, err
	}
	a, err := Simulate(t, codon.Universal, SeqConfig{
		Sites:  p.Codons,
		Params: TrueParams(),
		Seed:   seed + 1,
	})
	if err != nil {
		return nil, err
	}
	return &Dataset{Preset: p, Tree: t, Alignment: a}, nil
}
