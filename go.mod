module tag

go 1.24
