package graphpool

import (
	"historygraph/internal/delta"
	"historygraph/internal/graph"
)

// The tests overlay graphs they hold as snapshots the way a retrieval
// builds one: a graph under construction that a delta is applied to.

// OverlaySnapshot overlays s as a historical graph with no dependency, built
// up from the empty graph by the delta that makes s.
func (p *Pool) OverlaySnapshot(s *graph.Snapshot, at graph.Time) GraphID {
	return p.overlay(s, KindHistorical, at)
}

// OverlayMaterialized overlays s as a materialized graph.
func (p *Pool) OverlayMaterialized(s *graph.Snapshot) GraphID {
	return p.overlay(s, KindMaterialized, 0)
}

func (p *Pool) overlay(s *graph.Snapshot, kind GraphKind, at graph.Time) GraphID {
	b, err := p.NewBuild(NoDependency, false, allAttrs)
	if err != nil {
		panic(err)
	}
	b.ApplyDelta(delta.FromSnapshot(s))
	return b.Commit(kind, at)
}

// OverlayDependent overlays the graph d makes of dep's (the current graph or
// a materialized one) as a dependent of dep, retrieved with attrs.
func (p *Pool) OverlayDependent(dep GraphID, d *delta.Delta, at graph.Time, attrs graph.AttrOptions) (GraphID, error) {
	b, err := p.NewBuild(dep, true, attrs)
	if err != nil {
		return 0, err
	}
	b.ApplyDelta(d)
	return b.Commit(KindHistorical, at), nil
}
