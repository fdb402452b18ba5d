package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/slx"
	"repro/slx/adversary"
	"repro/slx/check"
	"repro/slx/consensus"
	"repro/slx/hist"
	"repro/slx/plane"
	"repro/slx/run"
	"repro/slx/tm"
)

// experiment is one of the paper's experiments. run does the timed
// work and returns a check, run after the pass, that compares the
// outcome with the known answer.
type experiment struct {
	name  string
	part  int
	layer string // per-layer metric receiving its time
	run   func(l map[string]float64) func() error
}

// paperExperiments is one pass of the paper's experiments: the plane
// classifications and Theorem 4.9 (part 0, internal/core), then the
// adversaries (part 1). The known answers come from the paper and
// EXPERIMENTS.md. The seed picks the bivalence proposals, the TM
// starvation roles and the order within each half.
func paperExperiments(rng *rand.Rand) []experiment {
	v1 := hist.Value(rng.Intn(1000))
	v2 := hist.Value(1000 + rng.Intn(1000))
	victim := 1 + rng.Intn(2)
	helper := 3 - victim
	xs := []experiment{
		{name: "figure1a", layer: "core.figure1a_ms", run: func(map[string]float64) func() error {
			pc, err := plane.Figure1a(4)
			return func() error {
				if err != nil {
					return err
				}
				// Theorem 5.2: strongest implementable (1,1), weakest
				// non-implementable (1,2).
				return wantPoints(pc, plane.LKPoint{L: 1, K: 1}, plane.LKPoint{L: 1, K: 2})
			}
		}},
		{name: "figure1b", layer: "core.figure1b_ms", run: func(map[string]float64) func() error {
			pc := plane.Figure1b(4)
			return func() error {
				// Theorem 5.3: (1,n) and (2,2), incomparable.
				if err := wantPoints(pc, plane.LKPoint{L: 1, K: 4}, plane.LKPoint{L: 2, K: 2}); err != nil {
					return err
				}
				s, _ := pc.StrongestImplementable()
				w, _ := pc.WeakestNonImplementable()
				if s.Comparable(w) {
					return fmt.Errorf("%v and %v must be incomparable", s, w)
				}
				return nil
			}
		}},
		{name: "section53", layer: "core.section53_ms", run: func(map[string]float64) func() error {
			pc := plane.Section53Plane(4)
			return func() error {
				// Section 5.3: two incomparable minimal blacks, so no
				// weakest excluded point.
				mb := pc.MinimalBlacks()
				if len(mb) != 2 || mb[0].Comparable(mb[1]) {
					return fmt.Errorf("want two incomparable minimal blacks, got %v", mb)
				}
				if w, ok := pc.WeakestNonImplementable(); ok {
					return fmt.Errorf("no weakest non-implementable point may exist, got %v", w)
				}
				return nil
			}
		}},
		{name: "nx", layer: "core.nx_ms", run: func(map[string]float64) func() error {
			c, err := plane.NXConsensus(2)
			return func() error {
				if err != nil {
					return err
				}
				// Section 6: strongest implementable (n,0), weakest
				// non-implementable (n,1).
				s, okS := c.StrongestImplementable()
				w, okW := c.WeakestNonImplementable()
				if !okS || !okW || s != 0 || w != 1 {
					return fmt.Errorf("want (n,0)/(n,1), got (n,%d)/(n,%d)", s, w)
				}
				return nil
			}
		}},
		{name: "theorem49", layer: "core.theorem49_ms", run: func(map[string]float64) func() error {
			r, err := plane.CheckTheorem49(5)
			return func() error {
				if err != nil {
					return err
				}
				if !r.Holds() {
					return fmt.Errorf("Theorem 4.9 proof steps failed:\n%s", r)
				}
				return nil
			}
		}},
		{name: "bivalence-registers", part: 1, layer: "adversary.bivalence_ms", run: func(l map[string]float64) func() error {
			strat := adversary.NewBivalenceStrategy(v1, v2)
			c := slx.New(
				slx.WithObject(func() run.Object { return consensus.NewCommitAdoptOF(2) }),
				slx.WithProcs(2),
				slx.WithMaxSteps(100),
			)
			rep, err := c.Adversary(strat, check.LK(1, 2, nil), check.AgreementValidity())
			if l != nil {
				l["adversary.bivalence_probes"] += float64(strat.Probes())
			}
			return func() error {
				if err != nil {
					return err
				}
				// Registers cannot give (1,2)-freedom; safety holds.
				if err := wantVerdicts(rep, map[string]bool{"(1,2)-freedom": false, "agreement+validity": true}); err != nil {
					return err
				}
				replay := slx.New(
					slx.WithObject(func() run.Object { return consensus.NewCommitAdoptOF(2) }),
					slx.WithEnv(strat.ScriptedEnv()),
					slx.WithProcs(2),
					slx.WithMaxSteps(100),
				)
				return replaysTo(replay, rep.Failures()[0], check.LK(1, 2, nil))
			}
		}},
		{name: "bivalence-cas", part: 1, layer: "adversary.bivalence_ms", run: func(map[string]float64) func() error {
			c := slx.New(
				slx.WithObject(func() run.Object { return consensus.NewCASBased() }),
				slx.WithProcs(2),
				slx.WithMaxSteps(40),
			)
			_, err := c.Adversary(adversary.NewBivalenceStrategy(v1, v2))
			return func() error {
				// CAS solves consensus: the adversary must get stuck
				// at a critical configuration. Any other error is a
				// broken adversary, not the known answer.
				if err == nil {
					return fmt.Errorf("bivalence adversary succeeded against CAS consensus")
				}
				if !strings.Contains(err.Error(), "no bivalence-preserving step") {
					return fmt.Errorf("bivalence adversary against CAS failed without getting stuck: %w", err)
				}
				return nil
			}
		}},
		{name: "tmstarve", part: 1, layer: "adversary.tmstarve_ms", run: func(map[string]float64) func() error {
			c := slx.New(slx.WithObject(func() run.Object { return tm.NewI12(2) }), slx.WithProcs(2), slx.WithMaxSteps(600))
			rep, err := c.Adversary(adversary.NewTMStarveStrategy(victim, helper),
				check.LocalProgress(), check.LK(2, 2, check.TMGood()), check.Opacity())
			return func() error {
				if err != nil {
					return err
				}
				// Section 4.1: the opaque TM starves the victim; the
				// adversary wins on liveness, not on safety.
				return wantVerdicts(rep, map[string]bool{"local-progress": false, "(2,2)-freedom": false, "opacity": true})
			}
		}},
		{name: "s3", part: 1, layer: "adversary.s3_ms", run: func(map[string]float64) func() error {
			c := slx.New(slx.WithObject(func() run.Object { return tm.NewI12(3) }), slx.WithProcs(3), slx.WithMaxSteps(900))
			rep, err := c.Adversary(adversary.NewS3Strategy(), check.LK(1, 3, check.TMGood()), check.PropertyS())
			return func() error {
				if err != nil {
					return err
				}
				// Section 5.3: under property S every transaction of
				// the lockstep schedule aborts.
				return wantVerdicts(rep, map[string]bool{"(1,3)-freedom": false, "S(opacity+timestamp-abort)": true})
			}
		}},
	}
	rng.Shuffle(5, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	rng.Shuffle(4, func(i, j int) { xs[5+i], xs[5+j] = xs[5+j], xs[5+i] })
	return xs
}

// wantPoints checks a plane's strongest implementable and weakest
// non-implementable points.
func wantPoints(pc *plane.PlaneClassification, strongest, weakest plane.LKPoint) error {
	s, okS := pc.StrongestImplementable()
	w, okW := pc.WeakestNonImplementable()
	if !okS || !okW || s != strongest || w != weakest {
		return fmt.Errorf("want %v/%v, got %v/%v", strongest, weakest, s, w)
	}
	return nil
}

// wantVerdicts checks that each named property holds or fails as
// expected.
func wantVerdicts(rep *slx.Report, want map[string]bool) error {
	for name, holds := range want {
		v, ok := rep.Verdict(name)
		if !ok {
			return fmt.Errorf("no verdict for %s", name)
		}
		if v.Holds != holds {
			return fmt.Errorf("%s holds=%v, want %v", name, v.Holds, holds)
		}
	}
	return nil
}

type paperInstance struct{ xs []experiment }

func setupPaper(seed int64) (instance, error) {
	p := &paperInstance{xs: paperExperiments(rand.New(rand.NewSource(seed)))}
	// Warm up on the cheapest experiment.
	for _, x := range p.xs {
		if x.name == "theorem49" {
			if err := x.run(nil)(); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", x.name, err)
			}
		}
	}
	return p, nil
}

func (p *paperInstance) pass(k int, tr *tracer) passResult {
	var layers map[string]float64
	if tr != nil {
		layers = map[string]float64{}
	}
	ops := make([]opResult, len(p.xs))
	checks := make([]func() error, len(p.xs))
	start := time.Now()
	for i, x := range p.xs {
		t0 := time.Now()
		checks[i] = x.run(layers)
		ops[i] = opResult{name: x.name, part: x.part, dur: time.Since(t0)}
		if tr != nil {
			s := tr.at(t0)
			tr.record(span{Trace: k, Name: "paper." + x.name, StartNs: s, EndNs: s + int64(ops[i].dur)})
			layers[x.layer] += ms(ops[i].dur)
		}
	}
	dur := time.Since(start)
	for i := range ops {
		ops[i].err = checks[i]()
	}
	return passResult{ops: ops, dur: dur, layers: layers}
}

func (p *paperInstance) finalChecks() []opResult { return nil }

func (p *paperInstance) close() {}
