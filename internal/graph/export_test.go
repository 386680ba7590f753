package graph

// NeighborhoodOutWeights returns W(v) as buildMatrix computes it, from the
// full edge CSR deriveEdges derives.
func NeighborhoodOutWeights(in *Instance) []float64 {
	off, list, err := in.deriveEdges()
	if err != nil {
		panic(err)
	}
	return in.neighborhoodOutWeights(off, list)
}
