// Package grnclust groups data sources by the similarity of their
// inferred GRNs, the disease-clustering workflow of the paper's
// Example 2: the distance between two data sources compares
// their edge existence probabilities over the gene pairs both sources
// measure, so sources with the same wiring are close regardless of
// sample counts. Both k-medoids (PAM-style) and average-linkage
// agglomerative clustering are provided; everything operates on an
// explicit distance matrix so alternative distances plug in directly.
package grnclust

import (
	"fmt"
	"math"

	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/grn"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/vecmath"
)

// Options tunes GRN distance computation.
type Options struct {
	// Scorer computes edge probabilities (AnalyticScorer{} when nil).
	Scorer grn.Scorer
	// Gamma is the inference threshold at which the compared GRN edge
	// sets are materialized (0.9 when 0). A high threshold keeps the
	// comparison on confident edges: the calibrated measure is uniform
	// under the null, so raw-probability differences between unrelated
	// pairs would otherwise dominate the distance.
	Gamma float64
	// MaxSharedGenes caps the shared gene panel considered per pair to
	// bound the O(s²) probability evaluations (16 when 0).
	MaxSharedGenes int
}

func (o Options) withDefaults() Options {
	if o.Scorer == nil {
		o.Scorer = grn.AnalyticScorer{}
	}
	if o.Gamma == 0 {
		o.Gamma = 0.9
	}
	if o.MaxSharedGenes <= 0 {
		o.MaxSharedGenes = 16
	}
	return o
}

// Distance returns the regulatory-structure distance between two matrices:
// the Jaccard distance between the edge sets of their inferred GRNs
// restricted to the gene pairs measured by both sources,
//
//	d = |E_a Δ E_b| / |E_a ∪ E_b|       (0 when both edge sets are empty).
//
// Sources sharing fewer than two genes are maximally distant (1).
func Distance(a, b *gene.Matrix, opts Options) (float64, error) {
	opts = opts.withDefaults()
	shared := sharedGenes(a, b, opts.MaxSharedGenes)
	if len(shared) < 2 {
		return 1, nil
	}
	if err := opts.Scorer.Prepare(a); err != nil {
		return 0, fmt.Errorf("cluster: preparing scorer for source %d: %w", a.Source, err)
	}
	pa := pairProbs(a, shared, opts.Scorer)
	if err := opts.Scorer.Prepare(b); err != nil {
		return 0, fmt.Errorf("cluster: preparing scorer for source %d: %w", b.Source, err)
	}
	pb := pairProbs(b, shared, opts.Scorer)
	union, symdiff := 0, 0
	for i := range pa {
		ea := pa[i] > opts.Gamma
		eb := pb[i] > opts.Gamma
		if ea || eb {
			union++
			if ea != eb {
				symdiff++
			}
		}
	}
	if union == 0 {
		return 0, nil // both GRNs are empty over the shared panel
	}
	return float64(symdiff) / float64(union), nil
}

// sharedGenes returns up to limit gene IDs present in both matrices,
// in a's column order for determinism.
func sharedGenes(a, b *gene.Matrix, limit int) []gene.ID {
	var out []gene.ID
	for _, g := range a.Genes() {
		if b.Has(g) {
			out = append(out, g)
			if len(out) == limit {
				break
			}
		}
	}
	return out
}

// pairProbs evaluates edge probabilities for every pair of the shared
// genes within one matrix, in canonical pair order.
func pairProbs(m *gene.Matrix, shared []gene.ID, sc grn.Scorer) []float64 {
	cols := make([]int, len(shared))
	for i, g := range shared {
		cols[i] = m.IndexOf(g)
	}
	out := make([]float64, 0, len(shared)*(len(shared)-1)/2)
	for i := 0; i < len(cols); i++ {
		for j := i + 1; j < len(cols); j++ {
			out = append(out, sc.Score(m, cols[i], cols[j]))
		}
	}
	return out
}

// DistanceMatrix computes the symmetric source-by-source distance matrix
// of db (ordered by db iteration order).
func DistanceMatrix(db *gene.Database, opts Options) (*vecmath.Matrix, error) {
	n := db.Len()
	dm := vecmath.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d, err := Distance(db.Matrix(i), db.Matrix(j), opts)
			if err != nil {
				return nil, err
			}
			dm.Set(i, j, d)
			dm.Set(j, i, d)
		}
	}
	return dm, nil
}

// Result is a clustering of the db's matrices.
type Result struct {
	// Assign[i] is the cluster of db.Matrix(i), in [0, K).
	Assign []int
	// Medoids[c] is the index of cluster c's representative matrix
	// (k-medoids only; -1 entries for agglomerative results).
	Medoids []int
	// Cost is the sum of distances to assigned medoids (k-medoids) or the
	// final merge height (agglomerative).
	Cost float64
}

// K returns the number of clusters.
func (r Result) K() int { return len(r.Medoids) }

// KMedoids clusters n items with PAM-style alternating assignment and
// medoid update over the distance matrix, restarted `restarts` times from
// random medoids (deterministic per rng).
func KMedoids(dm *vecmath.Matrix, k, restarts int, rng *randgen.Rand) (Result, error) {
	n := dm.Rows
	if dm.Cols != n {
		return Result{}, fmt.Errorf("cluster: distance matrix is %dx%d", dm.Rows, dm.Cols)
	}
	if k < 1 || k > n {
		return Result{}, fmt.Errorf("cluster: k=%d out of range [1,%d]", k, n)
	}
	if restarts < 1 {
		restarts = 1
	}
	best := Result{Cost: math.Inf(1)}
	for r := 0; r < restarts; r++ {
		medoids := rng.SampleWithoutReplacement(n, k)
		assign := make([]int, n)
		for iter := 0; iter < 64; iter++ {
			// Assignment step. A medoid always belongs to its own cluster
			// (ties between duplicate points would otherwise strand it).
			changed := false
			for i := 0; i < n; i++ {
				bestC, bestD := 0, math.Inf(1)
				for c, m := range medoids {
					if m == i {
						bestC, bestD = c, -1
						break
					}
					if d := dm.At(i, m); d < bestD {
						bestC, bestD = c, d
					}
				}
				if assign[i] != bestC {
					assign[i] = bestC
					changed = true
				}
			}
			// Medoid update: the member minimizing intra-cluster distance.
			for c := range medoids {
				bestM, bestSum := medoids[c], math.Inf(1)
				for i := 0; i < n; i++ {
					if assign[i] != c {
						continue
					}
					var sum float64
					for j := 0; j < n; j++ {
						if assign[j] == c {
							sum += dm.At(i, j)
						}
					}
					if sum < bestSum {
						bestM, bestSum = i, sum
					}
				}
				if medoids[c] != bestM {
					medoids[c] = bestM
					changed = true
				}
			}
			if !changed {
				break
			}
		}
		var cost float64
		for i := 0; i < n; i++ {
			cost += dm.At(i, medoids[assign[i]])
		}
		if cost < best.Cost {
			best = Result{
				Assign:  append([]int(nil), assign...),
				Medoids: append([]int(nil), medoids...),
				Cost:    cost,
			}
		}
	}
	return best, nil
}

// Agglomerative performs average-linkage hierarchical clustering, cutting
// the dendrogram at k clusters.
func Agglomerative(dm *vecmath.Matrix, k int) (Result, error) {
	n := dm.Rows
	if dm.Cols != n {
		return Result{}, fmt.Errorf("cluster: distance matrix is %dx%d", dm.Rows, dm.Cols)
	}
	if k < 1 || k > n {
		return Result{}, fmt.Errorf("cluster: k=%d out of range [1,%d]", k, n)
	}
	// Active clusters as member lists.
	clusters := make([][]int, n)
	for i := range clusters {
		clusters[i] = []int{i}
	}
	lastMerge := 0.0
	for len(clusters) > k {
		bi, bj, bd := -1, -1, math.Inf(1)
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				if d := avgLinkage(dm, clusters[i], clusters[j]); d < bd {
					bi, bj, bd = i, j, d
				}
			}
		}
		merged := append(append([]int(nil), clusters[bi]...), clusters[bj]...)
		clusters[bi] = merged
		clusters = append(clusters[:bj], clusters[bj+1:]...)
		lastMerge = bd
	}
	assign := make([]int, n)
	medoids := make([]int, len(clusters))
	for c, members := range clusters {
		for _, m := range members {
			assign[m] = c
		}
		medoids[c] = -1
	}
	return Result{Assign: assign, Medoids: medoids, Cost: lastMerge}, nil
}

func avgLinkage(dm *vecmath.Matrix, a, b []int) float64 {
	var sum float64
	for _, i := range a {
		for _, j := range b {
			sum += dm.At(i, j)
		}
	}
	return sum / float64(len(a)*len(b))
}

// Purity scores a clustering against ground-truth labels: the fraction of
// items whose cluster's majority label matches their own. 1 is perfect.
func Purity(assign []int, labels []int) float64 {
	if len(assign) != len(labels) || len(assign) == 0 {
		return 0
	}
	counts := make(map[int]map[int]int)
	for i, c := range assign {
		if counts[c] == nil {
			counts[c] = make(map[int]int)
		}
		counts[c][labels[i]]++
	}
	correct := 0
	for _, byLabel := range counts {
		best := 0
		for _, n := range byLabel {
			if n > best {
				best = n
			}
		}
		correct += best
	}
	return float64(correct) / float64(len(assign))
}
