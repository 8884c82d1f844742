//go:build race

package main

const raceLeg = true
