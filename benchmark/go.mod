// The benchmark is a module of its own, so that building and testing the
// repository (go build ./... && go test ./... at the root) never depends on it.
module deflation/benchmark

go 1.24

require deflation v0.0.0

replace deflation => ../
