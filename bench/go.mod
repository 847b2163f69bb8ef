module noblsm/bench

go 1.22

require noblsm v0.0.0

replace noblsm => ../
