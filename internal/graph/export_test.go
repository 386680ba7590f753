package graph

// NeighborhoodOutWeights exposes W(v), as buildMatrix computes it, to the
// external tests.
var NeighborhoodOutWeights = (*Instance).neighborhoodOutWeights
