// The benchmark is a module of its own so that it builds from its own
// build file; the aqe/ path prefix is what lets it import aqe/internal/...
module aqe/bench

go 1.22

require aqe v0.0.0

replace aqe => ../
