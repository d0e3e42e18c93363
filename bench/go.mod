module heterosw/bench

go 1.24

require heterosw v0.0.0

replace heterosw => ../
