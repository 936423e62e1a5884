module msgorder/benchmark

go 1.22

require msgorder v0.0.0

replace msgorder => ../
