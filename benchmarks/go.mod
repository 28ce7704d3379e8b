module amnesiadb/benchmarks

go 1.24

require amnesiadb v0.0.0

replace amnesiadb => ../
