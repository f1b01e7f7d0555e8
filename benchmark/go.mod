module historygraph/benchmark

go 1.24

require historygraph v0.0.0

replace historygraph => ../
