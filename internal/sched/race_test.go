//go:build race

package sched

func init() { raceDetector = true }
