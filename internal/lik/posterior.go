package lik

import "math"

// ClassPosteriors returns, for every site pattern, the posterior
// probability of each site class given the data and the current model
// parameters — the Naive Empirical Bayes (NEB) computation used to
// identify positively selected sites once the LRT is significant
// (paper §I-A). Rows are patterns, columns the model's site classes;
// each row sums to one.
//
// The method runs a full likelihood pass if caches are stale.
func (e *Engine) ClassPosteriors() [][]float64 {
	_, post := e.LogLikelihoodAndPosteriors()
	return post
}

// LogLikelihoodAndPosteriors computes the total log-likelihood and the
// per-pattern class posteriors in one pruning pass — the building
// block of the Bayes Empirical Bayes grid integration, which needs
// both quantities at every grid point.
func (e *Engine) LogLikelihoodAndPosteriors() (float64, [][]float64) {
	lnL := e.LogLikelihood() // ensure root partials are current

	out := make([][]float64, e.npat)
	classLog := make([]float64, e.numClasses)
	dots := make([]float64, e.numClasses)
	partials, scales := e.rootPartials()
	for p := 0; p < e.npat; p++ {
		out[p] = make([]float64, e.numClasses)
		maxLog := e.rootClassLogs(partials, scales, p, dots, classLog)
		sum := 0.0
		for c := 0; c < e.numClasses; c++ {
			out[p][c] = math.Exp(classLog[c] - maxLog)
			sum += out[p][c]
		}
		for c := 0; c < e.numClasses; c++ {
			out[p][c] /= sum
		}
	}
	return lnL, out
}

// ClassMassProbability reduces class posteriors to the per-pattern
// total posterior mass of the given classes — e.g. classes 2a and 2b
// of the branch-site model for "positive selection on the foreground
// branch", or class 2 of M2a for "positive selection anywhere".
func ClassMassProbability(post [][]float64, classes ...int) []float64 {
	out := make([]float64, len(post))
	for i, row := range post {
		for _, c := range classes {
			out[i] += row[c]
		}
	}
	return out
}
