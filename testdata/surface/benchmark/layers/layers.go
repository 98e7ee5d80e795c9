//go:build layerbench

// Command layers is the fixture's tagged client of lib.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() { fmt.Println(lib.LayerOnly()) }
