module montsalvat/benchmark

go 1.22

require montsalvat v0.0.0

replace montsalvat => ../
