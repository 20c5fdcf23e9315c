module ygm/benchmark

go 1.22

require ygm v0.0.0

replace ygm => ../
