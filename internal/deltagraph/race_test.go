//go:build race

package deltagraph

const raceEnabled = true
