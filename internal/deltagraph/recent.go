package deltagraph

import (
	"sort"

	"historygraph/internal/delta"
	"historygraph/internal/graph"
)

// recentList is the recent eventlist (Section 6): the events after the last
// leaf, held in the form a leaf-eventlist is stored in. Every run of size
// events is a chunk encoded by delta.EncodeEvents, and tail holds the events
// that do not fill one yet. A chunk keeps its events' times beside them, so
// the planner counts the events in any (lo, hi] exactly and a read decodes
// only the chunks that hold them.
type recentList struct {
	size   int // events a chunk holds: L/8, at least 1
	chunks [][]byte
	at     [][]graph.Time // of every event of each chunk, oldest first
	tail   graph.EventList
}

func newRecentList(leafSize int) recentList { return recentList{size: max(leafSize/8, 1)} }

func (l *recentList) len() int { return len(l.chunks)*l.size + len(l.tail) }

// search returns the number of events at or before t.
func (l *recentList) search(t graph.Time) int {
	c := sort.Search(len(l.at), func(c int) bool { return l.at[c][l.size-1] > t })
	if c == len(l.at) {
		return c*l.size + l.tail.SearchTime(t)
	}
	return c*l.size + sort.Search(l.size, func(i int) bool { return l.at[c][i] > t })
}

// add appends ev, encoding the tail once it fills a chunk.
func (l *recentList) add(ev graph.Event) {
	if l.tail = append(l.tail, ev); len(l.tail) < l.size {
		return
	}
	at := make([]graph.Time, l.size)
	for i, ev := range l.tail {
		at[i] = ev.At
	}
	l.chunks, l.at = append(l.chunks, delta.EncodeEvents(l.tail)), append(l.at, at)
	l.tail = nil // not l.tail[:0]: a whole chunk's array would outlive the events in it
}

// events returns events [a, b) of the list, oldest first. decoded holds the
// chunks decoded so far, a slot a chunk and one for the tail, and is given
// those the events lie in.
func (l *recentList) events(a, b int, decoded []graph.EventList) (graph.EventList, error) {
	evs := make(graph.EventList, 0, b-a)
	for c := a / l.size; c*l.size < b; c++ {
		if decoded[c] == nil && c < len(l.chunks) {
			var err error
			if decoded[c], err = delta.DecodeEvents(nil, l.chunks[c]); err != nil {
				return nil, err
			}
		} else if decoded[c] == nil {
			decoded[c] = l.tail
		}
		evs = append(evs, decoded[c][max(a-c*l.size, 0):min(b-c*l.size, len(decoded[c]))]...)
	}
	return evs, nil
}

// all returns every event of the list, oldest first, each chunk decoded
// straight into one slice of the list's length.
func (l *recentList) all() (graph.EventList, error) {
	evs := make(graph.EventList, 0, l.len())
	for _, chunk := range l.chunks {
		var err error
		if evs, err = delta.DecodeEvents(evs, chunk); err != nil {
			return nil, err
		}
	}
	return append(evs, l.tail...), nil
}
