module wholegraph/benchmark

go 1.22

require wholegraph v0.0.0

replace wholegraph => ../
