// The benchmark is a module of its own so that it builds from its own
// build file and stays out of the repository's `go test ./...`, vet and
// coverage ratchet. It imports the repository's packages through the
// replace below; the shared "attache/" path prefix is what lets it
// reach attache/internal/....
module attache/bench

go 1.22

require attache v0.0.0

replace attache => ../
