module td

go 1.24
