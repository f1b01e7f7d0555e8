// Package model implements the analytical models of Section 5 of the
// paper: delta sizes per level, total index space, root sizes, and
// shortest-path weights, under the constant-rate graph-dynamics model
// (a δ* fraction of events insert an element, a ρ* fraction delete one).
// The tests validate these formulas against measured DeltaGraph builds on
// constant-rate traces; nothing outside them imports the package, which is
// kept as that check of the builder against the paper's analysis.
package model

import "math"

// Dynamics is the Section 5.1 model of graph dynamics.
type Dynamics struct {
	// G0 is the initial graph size |G0| in elements.
	G0 float64
	// Events is |E|, the number of events in the historical trace.
	Events float64
	// DeltaStar (δ*) and RhoStar (ρ*) are the insert and delete
	// fractions; δ*+ρ* <= 1, the remainder being transient events.
	DeltaStar, RhoStar float64
}

// FinalGraphSize returns |G(|E|)| = |G0| + |E|·δ* − |E|·ρ*.
func (d Dynamics) FinalGraphSize() float64 {
	return d.G0 + d.Events*(d.DeltaStar-d.RhoStar)
}

// BalancedDeltaSize returns the Section 5.3 prediction for the size of one
// delta at the given level of a Balanced-function DeltaGraph with arity k
// and leaf-eventlist size L:
//
//	|∆(p, ci)| = ½ (k−1) k^(level−1) (δ*+ρ*) L
//
// Level 1 edges connect leaves to their parents.
func (d Dynamics) BalancedDeltaSize(level, k int, L float64) float64 {
	return 0.5 * float64(k-1) * math.Pow(float64(k), float64(level-1)) * (d.DeltaStar + d.RhoStar) * L
}

// BalancedLevelSpace returns the total delta space of one level, which the
// paper shows is the same at every level:
//
//	½ (k−1) (δ*+ρ*) |E|
func (d Dynamics) BalancedLevelSpace(k int) float64 {
	return 0.5 * float64(k-1) * (d.DeltaStar + d.RhoStar) * d.Events
}

// BalancedTotalSpace returns the total delta space excluding the
// super-root edge, for N leaves:
//
//	(log_k N − 1) · ½ (k−1) (δ*+ρ*) |E|
func (d Dynamics) BalancedTotalSpace(k, leaves int) float64 {
	levels := math.Log(float64(leaves)) / math.Log(float64(k))
	return (levels - 1) * d.BalancedLevelSpace(k)
}

// BalancedRootSize returns the predicted root size for the Balanced
// function: |G0| + ½ (δ*−ρ*) |E| (independent of arity).
func (d Dynamics) BalancedRootSize() float64 {
	return d.G0 + 0.5*(d.DeltaStar-d.RhoStar)*d.Events
}

// BalancedPathWeight returns the total weight of the shortest path from
// the super-root to any leaf under the Balanced function: ½ (δ*+ρ*) |E|
// plus the root size itself (the super-root edge carries the root).
func (d Dynamics) BalancedPathWeight() float64 {
	return d.BalancedRootSize() + 0.5*(d.DeltaStar+d.RhoStar)*d.Events
}

// IntersectionRootSize returns the predicted root size for the
// Intersection function in the three closed-form cases of Section 5.3:
//
//	ρ* = 0:        |G0|                       (growing-only graph)
//	δ* = ρ*:       |G0| · e^(−|E|·δ*/|G0|)    (constant-size graph)
//	δ* = 2ρ*:      |G0|² / (|G0| + ρ*·|E|)
//
// It panics for parameter combinations outside these cases.
func (d Dynamics) IntersectionRootSize() float64 {
	switch {
	case d.RhoStar == 0:
		return d.G0
	case d.DeltaStar == d.RhoStar:
		return d.G0 * math.Exp(-d.Events*d.DeltaStar/d.G0)
	case d.DeltaStar == 2*d.RhoStar:
		return d.G0 * d.G0 / (d.G0 + d.RhoStar*d.Events)
	}
	panic("model: IntersectionRootSize has closed forms only for ρ*=0, δ*=ρ*, δ*=2ρ*")
}

// IntersectionPathWeight returns the total weight of the shortest path
// from the super-root to a leaf under Intersection: exactly the size of
// that leaf's snapshot (the paper's "highly desirable property").
func (d Dynamics) IntersectionPathWeight(leafSize float64) float64 { return leafSize }

// CopyLogSpace estimates the Copy+Log disk footprint with chunk size C:
// N = |E|/C snapshots of average size avg(|G|), plus the raw events.
func (d Dynamics) CopyLogSpace(C float64) float64 {
	n := d.Events / C
	avg := d.G0 + 0.5*(d.DeltaStar-d.RhoStar)*d.Events
	return n*avg + d.Events
}

// IntervalTreeSpace estimates interval-tree space: one interval per
// inserted element, O(|E|).
func (d Dynamics) IntervalTreeSpace() float64 {
	return d.G0 + d.DeltaStar*d.Events
}

// SegmentTreeSpace estimates segment-tree space: O(|E| log |E|) from
// interval duplication.
func (d Dynamics) SegmentTreeSpace() float64 {
	n := d.G0 + d.DeltaStar*d.Events
	return n * math.Log2(math.Max(n, 2))
}
