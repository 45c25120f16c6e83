package markov

// RecordedEdges exposes the edge indices Enumerate records on a path to
// the external differential tests.
func RecordedEdges(p *Path) []int32 { return p.edges }
