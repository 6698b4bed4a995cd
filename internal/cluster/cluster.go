// Package cluster models the execution environment of the paper's
// experiments: a set of machines with CPUs, memory, and a network, plus a
// deterministic cost model that converts the exactly-counted work of a
// simulated run (edges gathered, bytes synchronized, barriers crossed) into
// simulated seconds, per-machine traffic, peak memory and CPU utilization —
// the four metrics of §4.3.
//
// All quantities are deterministic functions of (graph, assignment,
// application, cluster config), so experiments reproduce bit-for-bit.
package cluster

import "fmt"

// Config describes a cluster (§4.1, Table 4.1).
type Config struct {
	// Machines is the number of machines (9, 10, 16 or 25 in the paper).
	Machines int
	// PartsPerMachine is how many partitions each machine hosts.
	// PowerGraph/PowerLyra use 1; GraphX recommends one per core (§7.2) —
	// we default to 4 for the GraphX experiments, a scaled-down stand-in
	// for the paper's 16 cores that preserves the partitions≫machines
	// regime.
	PartsPerMachine int
}

// NumParts returns the total number of partitions.
func (c Config) NumParts() int {
	ppm := c.PartsPerMachine
	if ppm < 1 {
		ppm = 1
	}
	return c.Machines * ppm
}

// MachineOf maps a partition to its host machine (round-robin, as GraphX's
// block manager spreads partitions).
func (c Config) MachineOf(part int) int { return part % c.Machines }

// MachineTable returns MachineOf(p) for every partition p < NumParts(), for
// hot loops that would otherwise take a modulo per replica.
func (c Config) MachineTable() []int {
	t := make([]int, c.NumParts())
	for p := range t {
		t[p] = c.MachineOf(p)
	}
	return t
}

// Validate reports configuration errors early.
func (c Config) Validate() error {
	if c.Machines < 1 {
		return fmt.Errorf("cluster: need ≥1 machine, got %d", c.Machines)
	}
	// 0 means "default to 1" (NumParts clamps it), but a negative value is
	// a configuration error: MachineOf would misbehave for callers that
	// index partitions without going through NumParts's clamp.
	if c.PartsPerMachine < 0 {
		return fmt.Errorf("cluster: PartsPerMachine must be ≥0, got %d", c.PartsPerMachine)
	}
	return nil
}

// Local9, Local10, EC2x16 and EC2x25 are the paper's four cluster shapes
// (Table 4.1).
var (
	Local9  = Config{Machines: 9, PartsPerMachine: 1}
	Local10 = Config{Machines: 10, PartsPerMachine: 1}
	EC2x16  = Config{Machines: 16, PartsPerMachine: 1}
	EC2x25  = Config{Machines: 25, PartsPerMachine: 1}
	// GraphXLocal10 is the 10-machine GraphX cluster with multiple
	// partitions per machine (§7.3).
	GraphXLocal10 = Config{Machines: 10, PartsPerMachine: 4}
	// GraphXLocal9 is the 9-machine cluster of the GraphX-all experiments
	// (§9.2).
	GraphXLocal9 = Config{Machines: 9, PartsPerMachine: 4}
)

// CostModel holds every constant of the simulation. Defaults are loosely
// calibrated to the paper's hardware (Table 4.1: 8–16 vCPUs, 10GbE-class
// networking) but only *ratios* matter for the reproduced shapes.
type CostModel struct {
	// Compute.
	GatherEdgeNs  float64 // CPU per gather-direction edge scanned
	ScatterEdgeNs float64 // CPU per scatter-direction edge scanned
	ApplyVertexNs float64 // CPU per vertex apply (per replica synchronized)

	// Network.
	BandwidthBytesPerSec float64 // per-machine NIC bandwidth
	BarrierNs            float64 // per minor-step barrier latency
	SignalBytes          int     // activation message size
	MsgOverheadBytes     int     // per-message framing/header bytes

	// Ingress.
	DiskBytesPerSec    float64 // edge-list read rate per machine
	EdgeWireBytes      int     // bytes per edge on disk / on the wire
	HashAssignNs       float64 // per-edge cost of a hash-based assignment
	HeuristicAssignNs  float64 // per-edge-per-partition cost of greedy scoring
	FinalizeEdgeNs     float64 // per local edge: building CSR etc.
	FinalizeReplicaNs  float64 // per local vertex replica: metadata setup
	IngressPassOverlap float64 // fraction of a repeat pass not overlapped

	// Memory.
	ReplicaBytes        int     // bytes per vertex replica during compute
	EdgeMemBytes        int     // bytes per local edge during compute
	IngressBufferFactor float64 // raw-edge-buffer multiplier during ingress
	DegreeCounterBytes  int     // per-vertex counter kept by multi-pass strategies
	GingerStateBytes    int     // additional per-vertex state for H-Ginger's phase

	// GraphX-specific.
	TaskOverheadNs  float64 // Spark task scheduling per partition per iteration
	RDDEdgeNs       float64 // per local edge per iteration (RDD scan/materialize)
	GCKnee          float64 // memory-pressure ratio where GC overhead takes off
	GCSlope         float64 // GC overhead multiplier slope past the knee
	ExecutorBase    float64 // fixed executor memory overhead (bytes)
	RedistributeSec float64 // cost of one failed fit + redistribution attempt
}

// DefaultModel returns the calibrated default cost model.
func DefaultModel() CostModel {
	return CostModel{
		GatherEdgeNs:  40,
		ScatterEdgeNs: 25,
		// Per-replica apply/synchronization CPU: deserialize, lock, update
		// vertex state, bookkeeping. Calibrated so that small-payload
		// applications (K-core's 4-byte counters) are CPU-bound while
		// float-valued all-active applications (PageRank) remain
		// network-bound — the regime split behind Fig 8.4.
		ApplyVertexNs: 600,

		// m4.2xlarge instances see ~1 Gbps per flow; network dominates
		// the compute phase, as in the paper's EC2 runs.
		BandwidthBytesPerSec: 1.25e8,
		BarrierNs:            1.2e6,
		SignalBytes:          8,
		MsgOverheadBytes:     48,

		DiskBytesPerSec:    1.0e8,
		EdgeWireBytes:      16,
		HashAssignNs:       55,
		HeuristicAssignNs:  25,
		FinalizeEdgeNs:     400,
		FinalizeReplicaNs:  2000,
		IngressPassOverlap: 0.8,

		ReplicaBytes:        96,
		EdgeMemBytes:        24,
		IngressBufferFactor: 2.4,
		DegreeCounterBytes:  8,
		GingerStateBytes:    24,

		TaskOverheadNs:  2.5e6,
		RDDEdgeNs:       55,
		GCKnee:          0.55,
		GCSlope:         2.2,
		ExecutorBase:    64 << 20,
		RedistributeSec: 35,
	}
}

// MachineStats accumulates one machine's meters over a run, mirroring what
// the paper's psutil monitors sample (§4.3).
type MachineStats struct {
	CPUBusyNs   float64 // time the machine spent doing useful work
	NetInBytes  float64 // inbound traffic (the paper reports inbound only)
	NetOutBytes float64
	PeakMem     float64 // peak bytes over the run (max−min, background-free)
}

// Run accumulates a simulated execution: a simulated clock plus per-machine
// meters. Engines report per-partition work and traffic for each
// (minor-)step; Run folds partitions onto machines and advances the clock
// by the slowest machine, modeling the synchronous engines' barriers.
type Run struct {
	Cfg   Config
	Model CostModel

	SimSeconds float64
	Machines   []MachineStats
	Steps      int

	// scratch, sized to Machines
	work, in, out []float64
}

// NewRun prepares an accumulator for a cluster.
func NewRun(cfg Config, model CostModel) *Run {
	return &Run{
		Cfg:      cfg,
		Model:    model,
		Machines: make([]MachineStats, cfg.Machines),
		work:     make([]float64, cfg.Machines),
		in:       make([]float64, cfg.Machines),
		out:      make([]float64, cfg.Machines),
	}
}

// StepPartitioned advances the clock by one synchronous step given
// per-partition CPU work (ns) and traffic (bytes). Partitions map onto
// machines via Cfg.MachineOf. The step costs
//
//	max_m(work) + max_m(inBytes)/bandwidth + barrier
//
// and every machine's meters advance by its own share.
func (r *Run) StepPartitioned(workNs, inBytes, outBytes []float64) {
	for m := range r.work {
		r.work[m], r.in[m], r.out[m] = 0, 0, 0
	}
	for p := range workNs {
		m := r.Cfg.MachineOf(p)
		r.work[m] += workNs[p]
		if inBytes != nil {
			r.in[m] += inBytes[p]
		}
		if outBytes != nil {
			r.out[m] += outBytes[p]
		}
	}
	var maxWork, maxIn float64
	for m := 0; m < r.Cfg.Machines; m++ {
		if r.work[m] > maxWork {
			maxWork = r.work[m]
		}
		if r.in[m] > maxIn {
			maxIn = r.in[m]
		}
		r.Machines[m].CPUBusyNs += r.work[m]
		r.Machines[m].NetInBytes += r.in[m]
		r.Machines[m].NetOutBytes += r.out[m]
	}
	r.SimSeconds += maxWork/1e9 + maxIn/r.Model.BandwidthBytesPerSec + r.Model.BarrierNs/1e9
	r.Steps++
}

// SetPeakMem records a machine's peak memory if larger than seen so far.
func (r *Run) SetPeakMem(machine int, bytes float64) {
	if bytes > r.Machines[machine].PeakMem {
		r.Machines[machine].PeakMem = bytes
	}
}

// CPUUtilization returns each machine's busy fraction of the simulated
// wall-clock — the quantity box-plotted in Fig 8.4.
func (r *Run) CPUUtilization() []float64 {
	out := make([]float64, r.Cfg.Machines)
	if r.SimSeconds <= 0 {
		return out
	}
	for m := range out {
		out[m] = (r.Machines[m].CPUBusyNs / 1e9) / r.SimSeconds
	}
	return out
}

// AvgNetInGB returns the mean per-machine inbound traffic in GB (the y-axis
// of Figs 5.3, 6.1 and 8.3).
func (r *Run) AvgNetInGB() float64 {
	var sum float64
	for _, m := range r.Machines {
		sum += m.NetInBytes
	}
	return sum / float64(len(r.Machines)) / 1e9
}

// MaxPeakMemGB returns the maximum per-machine peak memory in GB (the
// y-axis of Figs 5.5 and 6.2).
func (r *Run) MaxPeakMemGB() float64 {
	var max float64
	for _, m := range r.Machines {
		if m.PeakMem > max {
			max = m.PeakMem
		}
	}
	return max / 1e9
}
