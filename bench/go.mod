module condorg/bench

go 1.22

require condorg v0.0.0

replace condorg => ../
