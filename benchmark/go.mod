// The benchmark is a module of its own so that it builds and runs the same
// way on any commit of the tree it measures: it reaches the program only
// through the parent module, replaced by path.
module laqy/benchmark

go 1.22

require laqy v0.0.0

replace laqy => ../
