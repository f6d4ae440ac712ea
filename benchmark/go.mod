module planet/benchmark

go 1.22

require planet v0.0.0

replace planet => ../
