//go:build race

package main

func init() { raceEnabled = true }
