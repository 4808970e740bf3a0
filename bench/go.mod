module squery/bench

go 1.22

require squery v0.0.0

replace squery => ../
