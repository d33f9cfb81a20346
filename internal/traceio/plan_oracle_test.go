package traceio

import (
	"cmp"
	"encoding/json"
	"math"
	"slices"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/deploy"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// The document builders the plan encoder replaced, kept as its oracle:
// json.Marshal of the planDoc they build is the reference
// TestPlanEncoderMatchesMarshal and FuzzReadPlan hold the encoder to, byte
// for byte. sortPairDocs packs a pair into one key, so it assumes the
// non-negative IDs every valid plan has.

// marshalOracle returns json.Marshal of a plan's document as the journal
// codec wrote it before the encoder: the whole validated plan when it has
// its Target, else the header with the target's region tags.
func marshalOracle(p *deploy.Plan) ([]byte, error) {
	if p.Target != nil {
		doc, err := planToDoc(p)
		if err != nil {
			return nil, err
		}
		return json.Marshal(doc)
	}
	doc := headerToDoc(p)
	if r := p.TargetRegions; r != nil {
		doc.TargetRegions = &regionsDoc{Topics: r.Topics, Subscribers: r.Subscribers}
	}
	return json.Marshal(doc)
}

// planToDoc validates the plan and builds its whole document.
func planToDoc(p *deploy.Plan) (*planDoc, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	doc := headerToDoc(p)
	doc.Target = &targetDoc{
		Workload:   workloadToDoc(p.Target.Workload),
		Allocation: allocToDoc(p.Target.Allocation),
	}
	return doc, nil
}

// headerToDoc builds the document of everything but the target: the
// header, the diff and the steps.
func headerToDoc(p *deploy.Plan) *planDoc {
	doc := &planDoc{
		Format:          planFormat,
		Version:         p.Version,
		BaseFingerprint: p.BaseFingerprint,
		Tau:             p.Tau,
		MessageBytes:    p.MessageBytes,
		Model: modelDoc{
			Instance:         instToDoc(p.Model.Instance),
			Hours:            p.Model.Hours,
			PerGB:            p.Model.PerGB,
			CapacityOverride: p.Model.CapacityOverrideBytesPerHour,
		},
		Diff:       diffToDoc(p.Diff),
		CostBefore: p.CostBefore,
		CostAfter:  p.CostAfter,
	}
	for i := 0; i < p.Fleet.Len(); i++ {
		doc.Fleet = append(doc.Fleet, fleetTypeDoc{
			instanceDoc: instToDoc(p.Fleet.Type(i)),
			Capacity:    p.Fleet.Capacity(i),
		})
	}
	for _, s := range p.Steps {
		doc.Steps = append(doc.Steps, stepToDoc(s))
	}
	return doc
}

func diffToDoc(d deploy.Diff) diffDoc {
	doc := diffDoc{
		NewTopics:      d.Delta.NewTopics,
		NewSubscribers: d.Delta.NewSubscribers,
		PairsMoved:     d.Stats.PairsMoved,
		PairsKept:      d.Stats.PairsKept,
		VMsBefore:      d.Stats.VMsBefore,
		VMsAfter:       d.Stats.VMsAfter,
	}
	for t, r := range d.Delta.RateChanges {
		doc.RateChanges = append(doc.RateChanges, pairDoc{int64(t), r})
	}
	slices.SortFunc(doc.RateChanges, func(a, b pairDoc) int { return cmp.Compare(a[0], b[0]) })
	for _, p := range d.Delta.Subscribe {
		doc.Subscribe = append(doc.Subscribe, pairDoc{int64(p.Topic), int64(p.Sub)})
	}
	for _, p := range d.Delta.Unsubscribe {
		doc.Unsubscribe = append(doc.Unsubscribe, pairDoc{int64(p.Topic), int64(p.Sub)})
	}
	sortPairDocs(doc.Subscribe)
	sortPairDocs(doc.Unsubscribe)
	return doc
}

// sortPairDocs orders [topic, subscriber] pairs by topic, then
// subscriber. Both IDs are non-negative int32s, so each pair packs into
// one ordered key.
func sortPairDocs(ps []pairDoc) {
	keys := make([]uint64, len(ps))
	for i, p := range ps {
		keys[i] = uint64(p[0])<<32 | uint64(p[1])
	}
	slices.Sort(keys)
	for i, k := range keys {
		ps[i] = pairDoc{int64(k >> 32), int64(k & math.MaxUint32)}
	}
}

func stepToDoc(s dynamic.Step) stepDoc {
	doc := stepDoc{Op: string(s.Op), VM: s.VM, Remove: placementsToDoc(s.Remove), Place: placementsToDoc(s.Place)}
	if s.Op == dynamic.OpBootVM {
		inst := instToDoc(s.Instance)
		doc.Instance = &inst
		doc.Capacity = s.Capacity
	}
	return doc
}

func placementsToDoc(ps []core.TopicPlacement) []placementDoc {
	var docs []placementDoc
	for _, p := range ps {
		pd := placementDoc{Topic: int64(p.Topic), Subs: make([]int64, 0, len(p.Subs))}
		for _, v := range p.Subs {
			pd.Subs = append(pd.Subs, int64(v))
		}
		docs = append(docs, pd)
	}
	return docs
}

func workloadToDoc(w *workload.Workload) workloadDoc {
	doc := workloadDoc{
		Rates:      w.Rates(),
		SubOffsets: make([]int64, 0, w.NumSubscribers()+1),
		SubTopics:  make([]int64, 0, w.NumPairs()),
	}
	if doc.Rates == nil {
		doc.Rates = []int64{}
	}
	doc.SubOffsets = append(doc.SubOffsets, 0)
	for v := 0; v < w.NumSubscribers(); v++ {
		for _, t := range w.Topics(workload.SubID(v)) {
			doc.SubTopics = append(doc.SubTopics, int64(t))
		}
		doc.SubOffsets = append(doc.SubOffsets, int64(len(doc.SubTopics)))
	}
	if w.HasRegions() {
		doc.TopicRegions = w.TopicRegions()
		doc.SubRegions = w.SubscriberRegions()
	}
	return doc
}

func allocToDoc(a *core.Allocation) []vmDoc {
	docs := make([]vmDoc, 0, len(a.VMs))
	for _, vm := range a.VMs {
		docs = append(docs, vmDoc{
			Instance:   instToDoc(vm.Instance),
			Capacity:   vm.CapacityBytesPerHour,
			Placements: placementsToDoc(vm.Placements),
		})
	}
	return docs
}
