// Package pubsub is the pub/sub substrate the MCSS paper assumes: an engine
// that accepts publications on topics and fans them out to the subscribers
// assigned to each broker VM. It provides two implementations:
//
//   - a deterministic discrete-event simulator (Simulate) that replays a
//     workload against an allocation, models each VM's egress link as a
//     shared serial resource, and reports per-subscriber deliveries,
//     per-VM traffic, delivery latency, and drops — the empirical oracle
//     that an allocation really satisfies subscribers within capacity;
//
//   - a concurrent in-memory broker cluster (Cluster) built on goroutines
//     and channels, used by the examples to demonstrate the allocation
//     driving a live dataflow.
//
// The simulator supports failure injection (crash a VM at a virtual time)
// so re-provisioning strategies can be evaluated.
package pubsub

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// nanosPerHour is the virtual-time base: all rates are events/hour.
const nanosPerHour = int64(3_600_000_000_000)

// SimConfig parameterizes a simulation run.
type SimConfig struct {
	// DurationHours is the virtual time horizon (must be > 0).
	DurationHours float64
	// MessageBytes is the size of one notification (zero means
	// core.DefaultMessageBytes).
	MessageBytes int64
	// LinkBytesPerHour is each VM's egress link speed used for latency
	// modeling. Zero disables the latency model (infinite link).
	LinkBytesPerHour int64
	// MaxEvents caps the number of publications processed (default 2e6);
	// the run fails if the cap is hit so that silently truncated results
	// can't be mistaken for complete ones.
	MaxEvents int64
	// Crashes schedules VM failures: events routed to a crashed VM after
	// the crash time are dropped and counted.
	Crashes []Crash
	// Poisson switches publication arrivals from deterministic fixed
	// spacing to exponential inter-arrival times with the same mean rate
	// (seeded by PoissonSeed, so runs stay reproducible).
	Poisson     bool
	PoissonSeed int64
}

// Crash schedules VM vm to fail at the given virtual hour.
type Crash struct {
	VM     int
	AtHour float64
}

// VMTraffic aggregates one VM's simulated traffic.
type VMTraffic struct {
	InBytes  int64
	OutBytes int64
	// Dropped counts deliveries lost to a crash.
	Dropped int64
}

// SimResult reports a completed simulation.
type SimResult struct {
	// Delivered[v] is the number of events delivered to subscriber v
	// (deduplicated across VMs: a pair served by multiple VMs counts
	// once per publication).
	Delivered []int64
	// PerVM indexes VMTraffic by VM ID.
	PerVM []VMTraffic
	// Events is the number of publications processed.
	Events int64
	// Deliveries is the number of per-pair deliveries attempted.
	Deliveries int64
	// DroppedDeliveries counts deliveries lost to crashes.
	DroppedDeliveries int64
	// MaxLatencyNanos and TotalLatencyNanos describe queueing delay under
	// the link model (0 when disabled).
	MaxLatencyNanos   int64
	TotalLatencyNanos int64
	// DurationHours echoes the config.
	DurationHours float64
}

// MeanLatencyNanos reports average delivery latency.
func (r *SimResult) MeanLatencyNanos() int64 {
	if r.Deliveries == 0 {
		return 0
	}
	return r.TotalLatencyNanos / r.Deliveries
}

// pubEvent is one scheduled publication.
type pubEvent struct {
	at    int64 // virtual nanos
	topic workload.TopicID
	seq   int64 // per-topic sequence, breaks ties deterministically
}

type eventHeap []pubEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].topic != h[j].topic {
		return h[i].topic < h[j].topic
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)     { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)       { *h = append(*h, x.(pubEvent)) }
func (h *eventHeap) Pop() any         { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }
func (h *eventHeap) init()            { heap.Init(h) }
func (h *eventHeap) push(ev pubEvent) { heap.Push(h, ev) }
func (h *eventHeap) pop() pubEvent    { return heap.Pop(h).(pubEvent) }

// ErrEventCapExceeded reports that MaxEvents was hit before DurationHours.
var ErrEventCapExceeded = errors.New("pubsub: event cap exceeded; raise MaxEvents or shrink the workload")

// Simulate replays the workload's publication streams against the
// allocation for the configured horizon. Publications of topic t occur at a
// fixed interval 1/ev_t hours (deterministic arrivals; the solver reasons
// about mean rates, and fixed spacing makes results reproducible and
// assertable). Each VM hosting the topic receives the publication (ingress)
// and forwards it to its assigned pairs (egress); a pair assigned to
// several VMs is delivered once per publication for satisfaction counting,
// while the bandwidth cost is charged on every VM, mirroring the MCSS cost
// model.
func Simulate(w *workload.Workload, alloc *core.Allocation, cfg SimConfig) (*SimResult, error) {
	if cfg.DurationHours <= 0 {
		return nil, fmt.Errorf("pubsub: DurationHours must be positive, got %v", cfg.DurationHours)
	}
	if cfg.MessageBytes == 0 {
		cfg.MessageBytes = core.DefaultMessageBytes
	}
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = 2_000_000
	}

	// Route tables: for each topic, the VMs hosting it and the pair lists.
	type hosting struct {
		vm    int
		pairs []workload.SubID
	}
	routes := make([][]hosting, w.NumTopics())
	for _, vm := range alloc.VMs {
		for _, p := range vm.Placements {
			routes[p.Topic] = append(routes[p.Topic], hosting{vm: vm.ID, pairs: p.Subs})
		}
	}
	// Deduplicate deliveries: a (t,v) pair may be hosted on several VMs;
	// only its first host counts toward the subscriber's delivered total,
	// while every host pays the bandwidth (the MCSS cost model's view).
	primaryFlags := make([][][]bool, w.NumTopics())
	for t := range routes {
		seen := make(map[workload.SubID]bool)
		primaryFlags[t] = make([][]bool, len(routes[t]))
		for ri, h := range routes[t] {
			flags := make([]bool, len(h.pairs))
			for i, v := range h.pairs {
				if !seen[v] {
					seen[v] = true
					flags[i] = true
				}
			}
			primaryFlags[t][ri] = flags
		}
	}

	crashAt := make([]int64, len(alloc.VMs))
	for i := range crashAt {
		crashAt[i] = int64(1) << 62
	}
	for _, c := range cfg.Crashes {
		if c.VM < 0 || c.VM >= len(alloc.VMs) {
			return nil, fmt.Errorf("pubsub: crash targets unknown VM %d", c.VM)
		}
		at := int64(c.AtHour * float64(nanosPerHour))
		if at < crashAt[c.VM] {
			crashAt[c.VM] = at
		}
	}

	horizon := int64(cfg.DurationHours * float64(nanosPerHour))
	res := &SimResult{
		Delivered:     make([]int64, w.NumSubscribers()),
		PerVM:         make([]VMTraffic, len(alloc.VMs)),
		DurationHours: cfg.DurationHours,
	}
	busyUntil := make([]int64, len(alloc.VMs))

	// Seed the event heap with each allocated topic's first publication.
	// Deterministic mode spaces events exactly 1/rate apart; Poisson mode
	// draws exponential gaps with the same mean from a seeded source.
	var rng *rand.Rand
	if cfg.Poisson {
		rng = rand.New(rand.NewSource(cfg.PoissonSeed))
	}
	gap := func(t workload.TopicID, mean int64) int64 {
		if rng == nil {
			return mean
		}
		g := int64(rng.ExpFloat64() * float64(mean))
		if g < 1 {
			g = 1
		}
		return g
	}
	var h eventHeap
	intervals := make([]int64, w.NumTopics())
	for t := range routes {
		if len(routes[t]) == 0 {
			continue
		}
		iv := nanosPerHour / w.Rate(workload.TopicID(t))
		if iv <= 0 {
			iv = 1
		}
		intervals[t] = iv
		first := iv / 2
		if rng != nil {
			first = gap(workload.TopicID(t), iv)
		}
		if first < horizon {
			h = append(h, pubEvent{at: first, topic: workload.TopicID(t)})
		}
	}
	h.init()

	for h.Len() > 0 {
		ev := h.pop()
		if res.Events >= cfg.MaxEvents {
			return nil, fmt.Errorf("%w: %d events", ErrEventCapExceeded, res.Events)
		}
		res.Events++

		for ri, host := range routes[ev.topic] {
			crashed := ev.at >= crashAt[host.vm]
			if !crashed {
				res.PerVM[host.vm].InBytes += cfg.MessageBytes
			}
			for i, v := range host.pairs {
				res.Deliveries++
				if crashed {
					res.PerVM[host.vm].Dropped++
					res.DroppedDeliveries++
					continue
				}
				res.PerVM[host.vm].OutBytes += cfg.MessageBytes
				if primaryFlags[ev.topic][ri][i] {
					res.Delivered[v]++
				}
				if cfg.LinkBytesPerHour > 0 {
					txTime := cfg.MessageBytes * nanosPerHour / cfg.LinkBytesPerHour
					start := ev.at
					if busyUntil[host.vm] > start {
						start = busyUntil[host.vm]
					}
					done := start + txTime
					busyUntil[host.vm] = done
					lat := done - ev.at
					res.TotalLatencyNanos += lat
					if lat > res.MaxLatencyNanos {
						res.MaxLatencyNanos = lat
					}
				}
			}
		}

		next := ev.at + gap(ev.topic, intervals[ev.topic])
		if next < horizon {
			h.push(pubEvent{at: next, topic: ev.topic, seq: ev.seq + 1})
		}
	}
	return res, nil
}

// ExpectedEvents reports how many publications topic t emits over the
// horizon under the deterministic schedule — useful for assertions.
func ExpectedEvents(rate int64, hours float64) int64 {
	iv := nanosPerHour / rate
	if iv <= 0 {
		iv = 1
	}
	horizon := int64(hours * float64(nanosPerHour))
	if horizon <= iv/2 {
		return 0
	}
	// Events at iv/2, iv/2+iv, ... < horizon.
	return (horizon-iv/2-1)/iv + 1
}

// CheckSatisfaction verifies that the simulation delivered at least
// fraction·τ_v·hours events to every subscriber with allocated pairs; it
// returns the first shortfall. fraction accommodates integer-floor effects
// of the deterministic schedule (0.9 is typical for multi-hour runs).
func CheckSatisfaction(w *workload.Workload, res *SimResult, tau int64, fraction float64) error {
	for v := 0; v < w.NumSubscribers(); v++ {
		need := float64(w.TauV(workload.SubID(v), tau)) * res.DurationHours * fraction
		if float64(res.Delivered[v]) < need {
			return fmt.Errorf("pubsub: subscriber %d delivered %d events, need ≥ %.0f",
				v, res.Delivered[v], need)
		}
	}
	return nil
}
