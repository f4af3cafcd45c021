// Fixture for the sem-layer unit tests: one function per call-graph edge
// kind.
package a

func Leaf() {}

// Static call of a declared function.
func Static() { Leaf() }

// Function literal invoked at its creation site.
func LitCall() {
	func() { Leaf() }()
}

// Literal assigned to a variable: an Escape edge to the literal, then a
// Dynamic call through the variable.
func EscapeLit() {
	f := func() { Leaf() }
	f()
}

type M struct{}

func (m *M) Do() {}

// Method value escaping via return.
func MethodValue(m *M) func() {
	return m.Do
}

// Declared function escaping as a value.
func FuncValue() func() {
	return Leaf
}

// go statement with a static target.
func Spawner() {
	go Leaf()
}

// Deferred call.
func DeferredCall() {
	defer Leaf()
}

// Call through a function parameter: unresolvable.
func Dyn(f func()) {
	f()
}
