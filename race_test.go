//go:build race

package cmetiling_test

func init() { raceEnabled = true }
