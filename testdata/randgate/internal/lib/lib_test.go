package lib

import "math/rand"

// A test may build any source it likes: allowed.
var testSource = rand.NewSource(1)
