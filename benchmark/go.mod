module github.com/imgrn/imgrn/benchmark

go 1.22

require github.com/imgrn/imgrn v0.0.0

replace github.com/imgrn/imgrn => ../
