package main

// Golden SHA-256 digests of each workload's rendered simulated output at
// defaultSeed. paper's equals the digest of `acacia-sim -all` stdout and
// metro's that of `acacia-sim -scale -full`.
const (
	goldenMetro   = "ab976c52293fb050ea085193492214d1fcdf6df2fd306fcfcebecd3ba7770d27"
	goldenPaper   = "4bdd26b134823842634c8583c97ed902f8721359ba88c8119a135b032aa0df31"
	goldenSession = "b869a9892d5276cf7bcb82854176c29967c5f71a3a04be91c5984465c684bde8"
)
