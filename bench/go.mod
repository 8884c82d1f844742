// The benchmark is a module of its own so it builds with its own build
// file; the replace directive points at the repository it measures, and
// the triclust/ import-path prefix keeps internal/ packages importable.
module triclust/bench

go 1.24

require triclust v0.0.0

replace triclust => ../
