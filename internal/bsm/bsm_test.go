package bsm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/codon"
)

func validParams() Params {
	return Params{Kappa: 2, Omega0: 0.1, Omega2: 3, P0: 0.6, P1: 0.3}
}

func TestValidate(t *testing.T) {
	p := validParams()
	if err := p.Validate(H1); err != nil {
		t.Fatalf("valid H1 params rejected: %v", err)
	}
	p.Omega2 = 1
	if err := p.Validate(H0); err != nil {
		t.Fatalf("valid H0 params rejected: %v", err)
	}

	bad := []struct {
		mod func(*Params)
		h   Hypothesis
	}{
		{func(p *Params) { p.Kappa = 0 }, H1},
		{func(p *Params) { p.Omega0 = 0 }, H1},
		{func(p *Params) { p.Omega0 = 1 }, H1},
		{func(p *Params) { p.Omega0 = 1.5 }, H1},
		{func(p *Params) { p.Omega2 = 0.5 }, H1},
		{func(p *Params) { p.Omega2 = 2 }, H0}, // H0 requires ω2 = 1
		{func(p *Params) { p.P0 = 0 }, H1},
		{func(p *Params) { p.P1 = 0 }, H1},
		{func(p *Params) { p.P0, p.P1 = 0.7, 0.5 }, H1}, // sum > 1
	}
	for i, tc := range bad {
		p := validParams()
		if tc.h == H0 {
			p.Omega2 = 1
		}
		tc.mod(&p)
		if err := p.Validate(tc.h); err == nil {
			t.Fatalf("case %d: invalid params accepted", i)
		}
	}
}

func TestProportionsTableI(t *testing.T) {
	p := Params{Kappa: 2, Omega0: 0.2, Omega2: 2, P0: 0.5, P1: 0.25}
	props := p.Proportions()
	// Table I formulas.
	rest := 1 - p.P0 - p.P1 // 0.25
	want2a := rest * p.P0 / (p.P0 + p.P1)
	want2b := rest * p.P1 / (p.P0 + p.P1)
	if props[Class0] != 0.5 || props[Class1] != 0.25 {
		t.Fatalf("classes 0/1 proportions wrong: %v", props)
	}
	if math.Abs(props[Class2a]-want2a) > 1e-15 || math.Abs(props[Class2b]-want2b) > 1e-15 {
		t.Fatalf("classes 2a/2b wrong: %v", props)
	}
	sum := 0.0
	for _, v := range props {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("proportions sum to %g", sum)
	}
}

// Property: proportions always form a distribution for valid p0, p1.
func TestProportionsSumToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p0 := 0.01 + 0.8*rng.Float64()
		p1 := 0.01 + (0.98-p0)*rng.Float64()
		p := Params{Kappa: 2, Omega0: 0.5, Omega2: 2, P0: p0, P1: p1}
		props := p.Proportions()
		sum := 0.0
		for _, v := range props {
			if v < 0 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewModelH1(t *testing.T) {
	pi := codon.UniformFrequencies(codon.Universal)
	m, err := New(codon.Universal, H1, validParams(), pi)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumDistinctRates() != 3 {
		t.Fatalf("H1 should have 3 distinct rates, got %d", m.NumDistinctRates())
	}
	if !(m.MuBar > 0) {
		t.Fatalf("MuBar = %g", m.MuBar)
	}
	// Table I rate assignments.
	if m.RateFor(Class0, false).Omega != m.Params.Omega0 {
		t.Fatal("class 0 background should use ω0")
	}
	if m.RateFor(Class0, true).Omega != m.Params.Omega0 {
		t.Fatal("class 0 foreground should use ω0")
	}
	if m.RateFor(Class1, false).Omega != 1 {
		t.Fatal("class 1 should use ω1 = 1")
	}
	if m.RateFor(Class2a, false).Omega != m.Params.Omega0 {
		t.Fatal("class 2a background should use ω0")
	}
	if m.RateFor(Class2a, true).Omega != m.Params.Omega2 {
		t.Fatal("class 2a foreground should use ω2")
	}
	if m.RateFor(Class2b, false).Omega != 1 {
		t.Fatal("class 2b background should use ω1")
	}
	if m.RateFor(Class2b, true).Omega != m.Params.Omega2 {
		t.Fatal("class 2b foreground should use ω2")
	}
}

func TestNewModelH0SharesRate(t *testing.T) {
	pi := codon.UniformFrequencies(codon.Universal)
	p := validParams()
	p.Omega2 = 1
	m, err := New(codon.Universal, H0, p, pi)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumDistinctRates() != 2 {
		t.Fatalf("H0 should share ω2 with ω1, got %d distinct", m.NumDistinctRates())
	}
	if m.RateFor(Class2a, true) != m.RateFor(Class1, false) {
		t.Fatal("H0 foreground class 2 rate must alias the ω1 rate")
	}
	if len(m.DistinctRates()) != 2 {
		t.Fatal("DistinctRates under H0 should have 2 entries")
	}
}

func TestNewModelRejectsInvalid(t *testing.T) {
	pi := codon.UniformFrequencies(codon.Universal)
	p := validParams()
	p.Kappa = -1
	if _, err := New(codon.Universal, H1, p, pi); err == nil {
		t.Fatal("invalid kappa accepted")
	}
	if _, err := New(codon.Universal, H1, validParams(), pi[:5]); err == nil {
		t.Fatal("short pi accepted")
	}
}

func TestMuBarIsBackgroundMixture(t *testing.T) {
	pi := codon.UniformFrequencies(codon.Universal)
	p := validParams()
	m, err := New(codon.Universal, H1, p, pi)
	if err != nil {
		t.Fatal(err)
	}
	props := p.Proportions()
	want := (props[Class0]+props[Class2a])*m.Rates[rateOmega0].Mu +
		(props[Class1]+props[Class2b])*m.Rates[rateOmega1].Mu
	if math.Abs(m.MuBar-want) > 1e-12 {
		t.Fatalf("MuBar = %g, want %g", m.MuBar, want)
	}
	// ω2 must not influence the normalizer (it only acts on the
	// foreground branch).
	p2 := p
	p2.Omega2 = 9
	m2, err := New(codon.Universal, H1, p2, pi)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.MuBar-m2.MuBar) > 1e-12 {
		t.Fatal("MuBar depends on omega2")
	}
}

func TestEffectiveTime(t *testing.T) {
	pi := codon.UniformFrequencies(codon.Universal)
	m, err := New(codon.Universal, H1, validParams(), pi)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.EffectiveTime(m.MuBar)-1) > 1e-12 {
		t.Fatal("EffectiveTime(MuBar) should be 1")
	}
	if m.EffectiveTime(0) != 0 {
		t.Fatal("EffectiveTime(0) should be 0")
	}
}

func TestClassNames(t *testing.T) {
	want := map[int]string{Class0: "0", Class1: "1", Class2a: "2a", Class2b: "2b"}
	for c, name := range want {
		if ClassName(c) != name {
			t.Fatalf("ClassName(%d) = %q", c, ClassName(c))
		}
	}
	if H0.String() != "H0" || H1.String() != "H1" {
		t.Fatal("hypothesis names wrong")
	}
}

// The shared normalizer reduces to MuBar = (p0·μ0 + p1·μ1)/(p0+p1):
// classes 2a and 2b split the remaining mass in the ratio p0 : p1 and
// use ω0 and ω1 on background branches. A move in p0 or p1 that changes
// their ratio therefore changes MuBar and with it the effective time
// t/MuBar, and so every branch's P(t). A proportion probe is not a
// reweighting of cached per-class root partials: it needs the full
// pruning pass like any other model parameter.
func TestMuBarDependsOnProportionRatio(t *testing.T) {
	pi := codon.UniformFrequencies(codon.Universal)
	for _, p := range []Params{
		{Kappa: 2, Omega0: 0.1, Omega2: 3, P0: 0.6, P1: 0.3},
		{Kappa: 1.5, Omega0: 0.4, Omega2: 1, P0: 0.2, P1: 0.05},
		{Kappa: 3, Omega0: 0.05, Omega2: 5, P0: 0.45, P1: 0.45},
	} {
		for _, h := range []Hypothesis{H0, H1} {
			if h == H0 {
				p.Omega2 = 1
			}
			m, err := New(codon.Universal, h, p, pi)
			if err != nil {
				t.Fatal(err)
			}
			mu0, mu1 := m.Rates[rateOmega0].Mu, m.Rates[rateOmega1].Mu
			want := (p.P0*mu0 + p.P1*mu1) / (p.P0 + p.P1)
			if math.Abs(m.MuBar-want) > 1e-14*want {
				t.Fatalf("%v %+v: MuBar %g, (p0·μ0 + p1·μ1)/(p0+p1) = %g", h, p, m.MuBar, want)
			}

			// Same ratio, different mass: MuBar is unchanged.
			scaled := p
			scaled.P0, scaled.P1 = p.P0*0.9, p.P1*0.9
			ms, err := New(codon.Universal, h, scaled, pi)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(ms.MuBar-m.MuBar) > 1e-14*m.MuBar {
				t.Fatalf("%v %+v: rescaling p0, p1 jointly moved MuBar %g → %g", h, p, m.MuBar, ms.MuBar)
			}

			// A p0 probe alone moves MuBar, hence every branch's time.
			probe := p
			probe.P0 += 1e-3
			mp, err := New(codon.Universal, h, probe, pi)
			if err != nil {
				t.Fatal(err)
			}
			if mp.EffectiveTime(0.1) == m.EffectiveTime(0.1) {
				t.Fatalf("%v %+v: a p0 probe left the effective branch time unchanged", h, p)
			}
		}
	}
}
