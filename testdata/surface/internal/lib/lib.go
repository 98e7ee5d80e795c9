// Package lib holds one exported identifier of every kind the surface gate
// credits as used, and one that only a test reads.
package lib

import "sync/atomic"

// Shape is called through by the client, which credits Square.Area.
type Shape interface {
	Area() float64
}

// Square implements Shape.
type Square struct {
	Side float64
}

// Area is reached only through Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// Logger is reached only through an anonymous interface assertion.
type Logger struct{}

// Log is called through interface{ Log() string }.
func (Logger) Log() string { return "log" }

// Config is filled by encoding/json.
type Config struct {
	Name string `json:"name"`
}

// Pair is built with a positional literal, which credits A and B.
type Pair struct {
	A, B int
}

// Sum reads the pair.
func (p Pair) Sum() int { return p.A + p.B }

// Stats has a field written only through its own methods.
type Stats struct {
	Hits atomic.Int64
}

// State is an iota enum whose zero value nothing names.
type State int

// The states; StateIdle is the zero value.
const (
	StateIdle State = iota
	StateBusy
)

// String is reached only through fmt.Stringer.
func (s State) String() string {
	if s == StateBusy {
		return "busy"
	}
	return "idle"
}

// LayerOnly is called only from benchmark/layers under the layerbench tag.
func LayerOnly() int { return 1 }

// Used is called by the client.
func Used() State { return StateBusy }

// OnlyTests is called only from lib_test.go.
func OnlyTests() int { return 2 }
