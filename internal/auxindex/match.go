package auxindex

import (
	"fmt"
	"sort"
	"strings"

	"historygraph/internal/deltagraph"
	"historygraph/internal/graph"
)

// Pattern is a small node-labeled query graph. Node IDs are local to the
// pattern.
type Pattern struct {
	Labels map[graph.NodeID]string
	Edges  [][2]graph.NodeID
}

// Match is one occurrence: a mapping from pattern node to data node.
type Match map[graph.NodeID]graph.NodeID

// key renders a canonical form for dedup.
func (m Match) key() string {
	ids := make([]graph.NodeID, 0, len(m))
	for p := range m {
		ids = append(ids, p)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var sb strings.Builder
	for _, p := range ids {
		fmt.Fprintf(&sb, "%d->%d;", p, m[p])
	}
	return sb.String()
}

// decompose finds one simple 4-node path in the pattern (the paper: "there
// must be at least one such path in the pattern").
func (p *Pattern) decompose() ([PathLen]graph.NodeID, error) {
	adj := map[graph.NodeID][]graph.NodeID{}
	for _, e := range p.Edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	var found [PathLen]graph.NodeID
	var dfs func(path []graph.NodeID) bool
	dfs = func(path []graph.NodeID) bool {
		if len(path) == PathLen {
			copy(found[:], path)
			return true
		}
		last := path[len(path)-1]
		for _, nb := range adj[last] {
			dup := false
			for _, seen := range path {
				if seen == nb {
					dup = true
					break
				}
			}
			if !dup && dfs(append(path, nb)) {
				return true
			}
		}
		return false
	}
	for start := range p.Labels {
		if dfs([]graph.NodeID{start}) {
			return found, nil
		}
	}
	return found, fmt.Errorf("auxindex: pattern has no simple path of %d nodes", PathLen)
}

// Matcher answers subgraph pattern queries against a DeltaGraph carrying a
// PathIndex; it implements the paper's AuxHistQuery roles on top of
// GetAuxSnapshot.
type Matcher struct {
	DG    *deltagraph.DeltaGraph
	Index *PathIndex
}

// FindPaths returns the indexed occurrences of a label quartet as of time
// t (a pure index lookup, no verification needed).
func (m *Matcher) FindPaths(t graph.Time, labels [PathLen]string) ([]Path, error) {
	aux, err := m.DG.GetAuxSnapshot(m.Index.Name(), t)
	if err != nil {
		return nil, err
	}
	prefix := LabelKeyPrefix(labels)
	var out []Path
	for k := range aux {
		if strings.HasPrefix(k, prefix) {
			if path, ok := ParsePathKey(k); ok {
				out = append(out, path)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out, nil
}

// Match finds all occurrences of the pattern as of time t.
func (m *Matcher) Match(t graph.Time, p *Pattern) ([]Match, error) {
	core, err := p.decompose()
	if err != nil {
		return nil, err
	}
	var labels [PathLen]string
	for i, pn := range core {
		labels[i] = p.Labels[pn]
	}
	candidates, err := m.FindPaths(t, labels)
	if err != nil {
		return nil, err
	}
	if len(candidates) == 0 {
		return nil, nil
	}
	snap, err := m.DG.GetSnapshot(t, graph.MustParseAttrOptions("+node:"+m.Index.LabelAttr))
	if err != nil {
		return nil, err
	}
	adj := map[graph.NodeID]map[graph.NodeID]bool{}
	for _, info := range snap.Edges {
		if adj[info.From] == nil {
			adj[info.From] = map[graph.NodeID]bool{}
		}
		if adj[info.To] == nil {
			adj[info.To] = map[graph.NodeID]bool{}
		}
		adj[info.From][info.To] = true
		adj[info.To][info.From] = true
	}
	label := func(n graph.NodeID) string { return snap.NodeAttrs[n][m.Index.LabelAttr] }

	seen := map[string]struct{}{}
	var out []Match
	for _, cand := range candidates {
		binding := Match{}
		ok := true
		used := map[graph.NodeID]bool{}
		for i, pn := range core {
			binding[pn] = cand[i]
			used[cand[i]] = true
		}
		if !ok {
			continue
		}
		m.extend(p, snap, adj, label, binding, used, func(full Match) {
			k := full.key()
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				cp := Match{}
				for a, b := range full {
					cp[a] = b
				}
				out = append(out, cp)
			}
		})
	}
	return out, nil
}

// extend completes a partial binding over the remaining pattern nodes by
// backtracking.
func (m *Matcher) extend(p *Pattern, snap *graph.Snapshot, adj map[graph.NodeID]map[graph.NodeID]bool,
	label func(graph.NodeID) string, binding Match, used map[graph.NodeID]bool, emit func(Match)) {

	// Verify currently-bound pattern edges.
	for _, e := range p.Edges {
		a, aok := binding[e[0]]
		b, bok := binding[e[1]]
		if aok && bok && !adj[a][b] {
			return
		}
	}
	// Find an unbound pattern node adjacent to a bound one.
	var next graph.NodeID = -1
	var anchor graph.NodeID
	for _, e := range p.Edges {
		if _, ok := binding[e[0]]; ok {
			if _, ok2 := binding[e[1]]; !ok2 {
				next, anchor = e[1], e[0]
				break
			}
		} else if _, ok2 := binding[e[1]]; ok2 {
			next, anchor = e[0], e[1]
			break
		}
	}
	if next == -1 {
		// All pattern nodes connected to the core are bound; patterns
		// are assumed connected.
		if len(binding) == len(p.Labels) {
			emit(binding)
		}
		return
	}
	want := p.Labels[next]
	for cand := range adj[binding[anchor]] {
		if used[cand] || label(cand) != want {
			continue
		}
		binding[next] = cand
		used[cand] = true
		m.extend(p, snap, adj, label, binding, used, emit)
		delete(binding, next)
		delete(used, cand)
	}
}

// MatchHistory runs the pattern over many time points (e.g. every leaf
// snapshot) and returns the total number of distinct (time, match) hits —
// the shape of the paper's 148-second / 14109-match experiment.
func (m *Matcher) MatchHistory(times []graph.Time, p *Pattern) (int, error) {
	total := 0
	for _, t := range times {
		matches, err := m.Match(t, p)
		if err != nil {
			return 0, err
		}
		total += len(matches)
	}
	return total, nil
}
