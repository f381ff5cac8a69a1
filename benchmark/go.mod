// The benchmark is a module of its own, built from this directory. It
// measures the repository it sits in, so it takes module repro from the
// parent directory; its path stays under repro/ so that it may import
// repro/internal/... as cmd/cscwctl does.
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
