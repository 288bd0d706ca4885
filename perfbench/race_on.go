//go:build race

package main

// raceBuild reports a -race build, whose sync.Pool drops items at
// random, so allocation totals do not repeat between passes.
const raceBuild = true
