//go:build race

package core

func init() { raceDetector = true }
