//go:build race

package serve

// raceEnabled gates the allocation gates: the race detector changes what
// allocates.
const raceEnabled = true
