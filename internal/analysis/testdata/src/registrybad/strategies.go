package partition

// Forgotten satisfies Strategy with one capability but no init registers
// it: the experiment tables would silently miss it.
type Forgotten struct{} // want `strategy type Forgotten is not registered`

func (Forgotten) Name() string                             { return "forgotten" }
func (Forgotten) NewAssigner(numParts int) func(int) int32 { return nil }

// Capless satisfies Strategy but no ingress capability: ShapeOf and the
// stream builders have nothing to dispatch on.
type Capless struct{} // want `strategy type Capless implements no ingress capability`

func (Capless) Name() string { return "capless" }

// Ambiguous claims two ingress capabilities; dispatch order would decide
// which one wins, silently.
type Ambiguous struct{} // want `strategy type Ambiguous implements 2 ingress capabilities`

func (Ambiguous) Name() string                             { return "ambiguous" }
func (Ambiguous) NewAssigner(numParts int) func(int) int32 { return nil }
func (Ambiguous) NewLoader(id int) func(int) int32         { return nil }

// EagerIncremental is stateless but implements IncrementalStrategy
// explicitly, shadowing the AsIncremental adapter.
type EagerIncremental struct{} // want `strategy type EagerIncremental implements IncrementalStrategy alongside StatelessStrategy`

func (EagerIncremental) Name() string                             { return "eager" }
func (EagerIncremental) NewAssigner(numParts int) func(int) int32 { return nil }
func (EagerIncremental) Apply(delta int)                          {}

// WholeGraph is stateless but keeps a whole-graph Partition beside its
// assigner: a second ingress path duplicating the first.
type WholeGraph struct{} // want `strategy type WholeGraph has a whole-graph Partition method but is not a MultiPassStrategy`

func (WholeGraph) Name() string                             { return "whole" }
func (WholeGraph) NewAssigner(numParts int) func(int) int32 { return nil }
func (WholeGraph) Partition(numParts int) []int32           { return nil }

// Promoted embeds WholeGraph, so the duplicate Partition arrives by
// promotion rather than by declaration.
type Promoted struct{ WholeGraph } // want `strategy type Promoted has a whole-graph Partition method but is not a MultiPassStrategy`

func (Promoted) NewAssigner(numParts int) func(int) int32 { return nil }

func init() {
	Register("capless", func() Strategy { return Capless{} })
	Register("ambiguous", func() Strategy { return Ambiguous{} })
	Register("eager", func() Strategy { return EagerIncremental{} })
	Register("whole", func() Strategy { return WholeGraph{} })
	Register("promoted", func() Strategy { return Promoted{} })
}
