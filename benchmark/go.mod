module smappic/benchmark

go 1.22

require smappic v0.0.0

replace smappic => ../
