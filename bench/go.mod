module tcodm/bench

go 1.22

require tcodm v0.0.0

replace tcodm => ../
