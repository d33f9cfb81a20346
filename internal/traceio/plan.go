package traceio

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/deploy"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// Plan format (version 1): a deployment plan as one JSON document — the
// durable, reviewable artifact of the Spec → Plan → Diff → Apply
// lifecycle. The document is deliberately map-free (rate changes and
// interest diffs are sorted arrays) so serialization is deterministic and
// plan files diff cleanly under review; money fields are decimal USD
// strings (pricing.MicroUSD's text form). Files ending in ".gz" are
// transparently (de)compressed.
//
// The error contract mirrors the timeline codec: bytes that are not a
// well-formed document of this format fail with ErrBadFormat, while a
// document that parses but describes a structurally unusable plan (bad
// references, inconsistent shapes, wrong version) fails with
// deploy.ErrInvalidPlan — the same error WritePlan/SavePlan reject it with
// before anything hits the wire. Hostile documents must never panic and
// never force allocations past the actual input size.

const planFormat = "mcss-plan"

type planDoc struct {
	Format          string           `json:"format"`
	Version         int              `json:"version"`
	BaseFingerprint string           `json:"base_fingerprint"`
	Tau             int64            `json:"tau"`
	MessageBytes    int64            `json:"message_bytes"`
	Model           modelDoc         `json:"model"`
	Fleet           []fleetTypeDoc   `json:"fleet"`
	Diff            diffDoc          `json:"diff"`
	CostBefore      pricing.MicroUSD `json:"cost_before"`
	CostAfter       pricing.MicroUSD `json:"cost_after"`
	Steps           []stepDoc        `json:"steps"`
	// Target is absent only in a journal's plan-begin body, which may
	// carry the target's region tags instead.
	Target        *targetDoc  `json:"target,omitempty"`
	TargetRegions *regionsDoc `json:"target_regions,omitempty"`
}

type regionsDoc struct {
	Topics      []int32 `json:"topics"`
	Subscribers []int32 `json:"subscribers"`
}

type instanceDoc struct {
	Name       string           `json:"name"`
	HourlyRate pricing.MicroUSD `json:"hourly_rate"`
	LinkMbps   int64            `json:"link_mbps"`
	Region     string           `json:"region,omitempty"`
}

type modelDoc struct {
	Instance         instanceDoc      `json:"instance"`
	Hours            int64            `json:"hours"`
	PerGB            pricing.MicroUSD `json:"per_gb"`
	CapacityOverride int64            `json:"capacity_override_bytes_per_hour,omitempty"`
}

type fleetTypeDoc struct {
	instanceDoc
	Capacity int64 `json:"capacity_bytes_per_hour"`
}

// pairDoc is one [topic, subscriber] pair.
type pairDoc [2]int64

type diffDoc struct {
	NewTopics      []int64   `json:"new_topics,omitempty"`
	NewSubscribers int       `json:"new_subscribers,omitempty"`
	RateChanges    []pairDoc `json:"rate_changes,omitempty"` // [topic, new rate], topic-ascending
	Subscribe      []pairDoc `json:"subscribe,omitempty"`
	Unsubscribe    []pairDoc `json:"unsubscribe,omitempty"`

	PairsMoved int64 `json:"pairs_moved"`
	PairsKept  int64 `json:"pairs_kept"`
	VMsBefore  int   `json:"vms_before"`
	VMsAfter   int   `json:"vms_after"`
}

type stepDoc struct {
	Op       string       `json:"op"`
	VM       int          `json:"vm"`
	Instance *instanceDoc `json:"instance,omitempty"`
	Capacity int64        `json:"capacity_bytes_per_hour,omitempty"`
	Topic    *int64       `json:"topic,omitempty"`
	Subs     []int64      `json:"subs,omitempty"`
}

type workloadDoc struct {
	Rates      []int64 `json:"rates"`
	SubOffsets []int64 `json:"sub_offsets"`
	SubTopics  []int64 `json:"sub_topics"`
	// Optional region tags; both present or both absent.
	TopicRegions []int32 `json:"topic_regions,omitempty"`
	SubRegions   []int32 `json:"sub_regions,omitempty"`
}

type placementDoc struct {
	Topic int64   `json:"topic"`
	Subs  []int64 `json:"subs"`
}

type vmDoc struct {
	Instance   instanceDoc    `json:"instance"`
	Capacity   int64          `json:"capacity_bytes_per_hour"`
	Placements []placementDoc `json:"placements,omitempty"`
}

type targetDoc struct {
	Workload   workloadDoc `json:"workload"`
	Allocation []vmDoc     `json:"allocation"`
}

// WritePlan validates the plan and serializes it as an indented JSON
// document. A structurally invalid plan is rejected with
// deploy.ErrInvalidPlan before anything is written. Workload names are not
// part of the format: plans address topics and subscribers by dense ID,
// like every other codec in this package.
func WritePlan(p *deploy.Plan, out io.Writer) error {
	doc, err := planToDoc(p)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = out.Write(b)
	return err
}

// planToDoc validates the plan and builds its document: the one builder
// behind WritePlan's indented files and the journal codec's compact
// bodies.
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

// ReadPlan parses a plan document and rebuilds a validated deploy.Plan.
// Bytes that are not well-formed JSON of this format fail with
// ErrBadFormat; a document that parses but violates the plan invariants
// fails with deploy.ErrInvalidPlan.
func ReadPlan(in io.Reader) (*deploy.Plan, error) {
	doc, err := decodePlanDoc(in)
	if err != nil {
		return nil, err
	}
	if doc.Target == nil {
		doc.Target = &targetDoc{}
	}
	return planFromDoc(doc)
}

// decodePlanDoc parses a plan document of this format.
func decodePlanDoc(in io.Reader) (*planDoc, error) {
	var doc planDoc
	if err := json.NewDecoder(in).Decode(&doc); err != nil {
		return nil, fmt.Errorf("%w: plan document: %v", ErrBadFormat, err)
	}
	if doc.Format != planFormat {
		return nil, fmt.Errorf("%w: bad plan format %q", ErrBadFormat, doc.Format)
	}
	return &doc, nil
}

// planFromDoc rebuilds the plan of a parsed document. A document without
// a target is a journal's plan-begin body: its plan has no Target, only
// the target's region tags, and is validated once the journal's Recover
// has rebuilt the target. Every other plan is validated here.
func planFromDoc(doc *planDoc) (*deploy.Plan, error) {
	model := pricing.Model{
		Instance:                     instFromDoc(doc.Model.Instance),
		Hours:                        doc.Model.Hours,
		PerGB:                        doc.Model.PerGB,
		CapacityOverrideBytesPerHour: doc.Model.CapacityOverride,
	}
	var fleet pricing.Fleet
	if len(doc.Fleet) > 0 {
		types := make([]pricing.InstanceType, len(doc.Fleet))
		caps := make([]int64, len(doc.Fleet))
		for i, ft := range doc.Fleet {
			types[i] = instFromDoc(ft.instanceDoc)
			caps[i] = ft.Capacity
		}
		var err error
		if fleet, err = pricing.NewFleetWithCapacities(types, caps); err != nil {
			return nil, fmt.Errorf("%w: fleet: %v", deploy.ErrInvalidPlan, err)
		}
	}
	diff, err := diffFromDoc(doc.Diff)
	if err != nil {
		return nil, fmt.Errorf("%w: diff: %v", deploy.ErrInvalidPlan, err)
	}
	plan := &deploy.Plan{
		Version:         doc.Version,
		BaseFingerprint: doc.BaseFingerprint,
		Tau:             doc.Tau,
		MessageBytes:    doc.MessageBytes,
		Model:           model,
		Fleet:           fleet,
		Diff:            diff,
		CostBefore:      doc.CostBefore,
		CostAfter:       doc.CostAfter,
	}
	for i, sd := range doc.Steps {
		s, err := stepFromDoc(sd)
		if err != nil {
			return nil, fmt.Errorf("%w: step %d: %v", deploy.ErrInvalidPlan, i, err)
		}
		plan.Steps = append(plan.Steps, s)
	}
	if doc.Target == nil {
		if r := doc.TargetRegions; r != nil {
			plan.TargetRegions = &deploy.Regions{Topics: r.Topics, Subscribers: r.Subscribers}
		}
		return plan, nil
	}
	w, err := workloadFromDoc(doc.Target.Workload)
	if err != nil {
		return nil, fmt.Errorf("%w: target workload: %v", deploy.ErrInvalidPlan, err)
	}
	alloc, err := allocFromDoc(doc.Target.Allocation, w, doc.MessageBytes, fleet)
	if err != nil {
		return nil, fmt.Errorf("%w: target allocation: %v", deploy.ErrInvalidPlan, err)
	}
	plan.Target = deploy.NewState(w, alloc)
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}

// SavePlan writes a validated plan to path; a ".gz" suffix enables gzip.
// A plan that fails validation never truncates an existing file.
func SavePlan(p *deploy.Plan, path string) error {
	if err := p.Validate(); err != nil {
		return err
	}
	return saveFile(path, func(out io.Writer) error { return WritePlan(p, out) })
}

// LoadPlan reads a validated plan from path, transparently decompressing
// ".gz" files.
func LoadPlan(path string) (*deploy.Plan, error) {
	return loadFile(path, ReadPlan)
}

func instToDoc(it pricing.InstanceType) instanceDoc {
	return instanceDoc{Name: it.Name, HourlyRate: it.HourlyRate, LinkMbps: it.LinkMbps, Region: it.Region}
}

func instFromDoc(d instanceDoc) pricing.InstanceType {
	return pricing.InstanceType{Name: d.Name, HourlyRate: d.HourlyRate, LinkMbps: d.LinkMbps, Region: d.Region}
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

func diffFromDoc(doc diffDoc) (deploy.Diff, error) {
	d := deploy.Diff{
		Delta: dynamic.Delta{
			NewTopics:      doc.NewTopics,
			NewSubscribers: doc.NewSubscribers,
		},
		Stats: dynamic.MigrationStats{
			PairsMoved: doc.PairsMoved,
			PairsKept:  doc.PairsKept,
			VMsBefore:  doc.VMsBefore,
			VMsAfter:   doc.VMsAfter,
		},
	}
	if len(doc.RateChanges) > 0 {
		d.Delta.RateChanges = make(map[workload.TopicID]int64, len(doc.RateChanges))
		for _, rc := range doc.RateChanges {
			t, err := asTopicID(rc[0])
			if err != nil {
				return deploy.Diff{}, err
			}
			d.Delta.RateChanges[t] = rc[1]
		}
	}
	var err error
	if d.Delta.Subscribe, err = pairsFromDocs(doc.Subscribe); err != nil {
		return deploy.Diff{}, err
	}
	if d.Delta.Unsubscribe, err = pairsFromDocs(doc.Unsubscribe); err != nil {
		return deploy.Diff{}, err
	}
	return d, nil
}

func pairsFromDocs(docs []pairDoc) ([]workload.Pair, error) {
	var out []workload.Pair
	for _, pd := range docs {
		t, err := asTopicID(pd[0])
		if err != nil {
			return nil, err
		}
		v, err := asSubID(pd[1])
		if err != nil {
			return nil, err
		}
		out = append(out, workload.Pair{Topic: t, Sub: v})
	}
	return out, nil
}

func asTopicID(v int64) (workload.TopicID, error) {
	if v < 0 || v > math.MaxInt32 {
		return 0, fmt.Errorf("topic id %d out of range", v)
	}
	return workload.TopicID(v), nil
}

func asSubID(v int64) (workload.SubID, error) {
	if v < 0 || v > math.MaxInt32 {
		return 0, fmt.Errorf("subscriber id %d out of range", v)
	}
	return workload.SubID(v), nil
}

func stepToDoc(s dynamic.Step) stepDoc {
	doc := stepDoc{Op: string(s.Op), VM: s.VM}
	switch s.Op {
	case dynamic.OpBootVM:
		inst := instToDoc(s.Instance)
		doc.Instance = &inst
		doc.Capacity = s.Capacity
	case dynamic.OpPlace, dynamic.OpRemove:
		t := int64(s.Topic)
		doc.Topic = &t
		for _, v := range s.Subs {
			doc.Subs = append(doc.Subs, int64(v))
		}
	}
	return doc
}

func stepFromDoc(doc stepDoc) (dynamic.Step, error) {
	s := dynamic.Step{Op: dynamic.StepOp(doc.Op), VM: doc.VM}
	switch s.Op {
	case dynamic.OpBootVM:
		if doc.Instance != nil {
			s.Instance = instFromDoc(*doc.Instance)
		}
		s.Capacity = doc.Capacity
	case dynamic.OpRetireVM:
	case dynamic.OpPlace, dynamic.OpRemove:
		if doc.Topic == nil {
			return dynamic.Step{}, fmt.Errorf("%s step without a topic", doc.Op)
		}
		t, err := asTopicID(*doc.Topic)
		if err != nil {
			return dynamic.Step{}, err
		}
		s.Topic = t
		for _, v := range doc.Subs {
			sv, err := asSubID(v)
			if err != nil {
				return dynamic.Step{}, err
			}
			s.Subs = append(s.Subs, sv)
		}
	default:
		return dynamic.Step{}, fmt.Errorf("unknown op %q", doc.Op)
	}
	return s, nil
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

func workloadFromDoc(doc workloadDoc) (*workload.Workload, error) {
	rates := doc.Rates
	if rates == nil {
		rates = []int64{}
	}
	subTopics := make([]workload.TopicID, 0, len(doc.SubTopics))
	for _, t := range doc.SubTopics {
		tid, err := asTopicID(t)
		if err != nil {
			return nil, err
		}
		subTopics = append(subTopics, tid)
	}
	subOff := doc.SubOffsets
	if len(subOff) == 0 {
		subOff = []int64{0}
	}
	w, err := workload.FromCSR(rates, subOff, subTopics, nil, nil)
	if err != nil {
		return nil, err
	}
	if doc.TopicRegions != nil || doc.SubRegions != nil {
		return w.WithRegions(doc.TopicRegions, doc.SubRegions)
	}
	return w, nil
}

func allocToDoc(a *core.Allocation) []vmDoc {
	docs := make([]vmDoc, 0, len(a.VMs))
	for _, vm := range a.VMs {
		d := vmDoc{Instance: instToDoc(vm.Instance), Capacity: vm.CapacityBytesPerHour}
		for _, p := range vm.Placements {
			pd := placementDoc{Topic: int64(p.Topic), Subs: make([]int64, 0, len(p.Subs))}
			for _, v := range p.Subs {
				pd.Subs = append(pd.Subs, int64(v))
			}
			d.Placements = append(d.Placements, pd)
		}
		docs = append(docs, d)
	}
	return docs
}

// allocFromDoc rebuilds the allocation, recomputing the bandwidth
// accounting from the target workload's rates (derived fields are not on
// the wire, so a tampered file cannot smuggle inconsistent accounting).
func allocFromDoc(docs []vmDoc, w *workload.Workload, messageBytes int64, fleet pricing.Fleet) (*core.Allocation, error) {
	alloc := &core.Allocation{Fleet: fleet, MessageBytes: messageBytes}
	for i, d := range docs {
		vm := &core.VM{
			ID:                   i,
			Instance:             instFromDoc(d.Instance),
			CapacityBytesPerHour: d.Capacity,
		}
		for _, pd := range d.Placements {
			t, err := asTopicID(pd.Topic)
			if err != nil {
				return nil, fmt.Errorf("vm %d: %v", i, err)
			}
			if int(t) >= w.NumTopics() {
				return nil, fmt.Errorf("vm %d serves topic %d of %d", i, t, w.NumTopics())
			}
			subs := make([]workload.SubID, 0, len(pd.Subs))
			for _, sv := range pd.Subs {
				v, err := asSubID(sv)
				if err != nil {
					return nil, fmt.Errorf("vm %d: %v", i, err)
				}
				if int(v) >= w.NumSubscribers() {
					return nil, fmt.Errorf("vm %d serves subscriber %d of %d", i, v, w.NumSubscribers())
				}
				subs = append(subs, v)
			}
			rb := w.Rate(t) * messageBytes
			vm.Placements = append(vm.Placements, core.TopicPlacement{Topic: t, Subs: subs})
			vm.InBytesPerHour += rb
			vm.OutBytesPerHour += rb * int64(len(subs))
		}
		alloc.VMs = append(alloc.VMs, vm)
	}
	return alloc, nil
}
