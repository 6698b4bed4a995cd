// Package partition (fixture) carries one of each registry violation: an
// unregistered strategy, a capability-less strategy, a dual-capability
// strategy, an incremental stateless strategy, and stateless strategies
// with a declared or promoted whole-graph Partition.
package partition

// Strategy is the base contract every partitioning strategy satisfies.
type Strategy interface {
	Name() string
}

// StatelessStrategy assigns each edge independently.
type StatelessStrategy interface {
	Strategy
	NewAssigner(numParts int) func(edge int) int32
}

// StreamingStrategy consumes the edge stream with per-loader state.
type StreamingStrategy interface {
	Strategy
	NewLoader(id int) func(edge int) int32
}

// MultiPassStrategy revisits the edge list across passes; it alone places
// the whole graph at once.
type MultiPassStrategy interface {
	Strategy
	PassCount() int
	Partition(numParts int) []int32
}

// IncrementalStrategy adapts an assignment under edge churn.
type IncrementalStrategy interface {
	Strategy
	Apply(delta int)
}

var registry = map[string]func() Strategy{}

// Register installs a strategy constructor under its name.
func Register(name string, mk func() Strategy) { registry[name] = mk }
