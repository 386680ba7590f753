// The benchmark is a module of its own so that it builds from its own
// directory; it reaches the packages it measures through the replace.
module s3/benchmark

go 1.24

require s3 v0.0.0

replace s3 => ../
