package core

// Test data generators shared with the external test package (the tests
// that drive core through shard and transport, which import core).
var (
	Clustered   = clustered
	MakeQueries = makeQueries
)
