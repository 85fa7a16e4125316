module matchfilter/benchmark

go 1.22

require matchfilter v0.0.0

replace matchfilter => ../
