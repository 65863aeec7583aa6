module pimzdtree/benchmark

go 1.23

require pimzdtree v0.0.0

replace pimzdtree => ../
