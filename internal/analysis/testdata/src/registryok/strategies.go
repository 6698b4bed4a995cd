package partition

// Hash is a correctly-shaped stateless strategy: registered in this file's
// init, exactly one ingress capability.
type Hash struct{}

func (Hash) Name() string                             { return "hash" }
func (Hash) NewAssigner(numParts int) func(int) int32 { return nil }

// Greedy is a correctly-shaped streaming strategy that also carries native
// incremental state — the one combination IncrementalStrategy is legal in.
type Greedy struct{ state []int32 }

func (*Greedy) Name() string { return "greedy" }
func (*Greedy) NewLoader(id int) func(int) int32 {
	return nil
}
func (*Greedy) Apply(delta int) {}

// Offline is a correctly-shaped multi-pass strategy: the one capability
// with a whole-graph Partition.
type Offline struct{}

func (Offline) Name() string                   { return "offline" }
func (Offline) PassCount() int                 { return 2 }
func (Offline) Partition(numParts int) []int32 { return nil }

func init() {
	Register("hash", func() Strategy { return Hash{} })
	Register("greedy", func() Strategy { return &Greedy{} })
	Register("offline", func() Strategy { return Offline{} })
}
