// Package a holds one identifier of every kind the checker tells apart.
package a

// Used is called from cmd/app.
func Used() int { return 1 }

// TestOnly is called only from a_test.go.
func TestOnly() int { return 2 }

// Consumed is called only from the nested consumer module.
func Consumed() int { return 3 }

// Oracle is called only from a_test.go and is allowlisted.
func Oracle() int { return helper() }

// helper is reached only through the allowlisted Oracle.
func helper() int { return 4 }

// T is used by cmd/app.
type T struct{}

// Unreferenced has no caller.
func (T) Unreferenced() {}

// String satisfies fmt.Stringer.
func (T) String() string { return "T" }

// Run satisfies Runner.
func (T) Run() {}

// Runner is the local interface cmd/app calls through.
type Runner interface{ Run() }
