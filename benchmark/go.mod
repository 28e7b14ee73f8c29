module github.com/pem-go/pem/benchmark

go 1.24

require github.com/pem-go/pem v0.0.0

replace github.com/pem-go/pem => ../
