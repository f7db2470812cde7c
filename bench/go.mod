module github.com/zeroshot-db/zeroshot/bench

go 1.22

require github.com/zeroshot-db/zeroshot v0.0.0

replace github.com/zeroshot-db/zeroshot => ../
