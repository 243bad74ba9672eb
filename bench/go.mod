module github.com/memadapt/masort/bench

go 1.23

require github.com/memadapt/masort v0.0.0

replace github.com/memadapt/masort => ../
