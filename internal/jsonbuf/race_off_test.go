//go:build !race

package jsonbuf

const raceEnabled = false
