// The benchmark is a module of its own so that it builds from its own
// directory; the replace pins it to the checkout it sits in, and the
// fleet/ path prefix is what lets it import fleet/internal/... packages.
module fleet/bench/perf

go 1.23

require fleet v0.0.0

replace fleet => ../..
