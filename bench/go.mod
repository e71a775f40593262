module floodgate/bench

go 1.22

require floodgate v0.0.0

replace floodgate => ../
