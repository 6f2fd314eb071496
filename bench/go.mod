module octopus/bench

go 1.22

require octopus v0.0.0

replace octopus => ../
