package traceio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/deploy"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// Plan format (version 2): a deployment plan as one JSON document — the
// durable, reviewable artifact of the Spec → Plan → Diff → Apply
// lifecycle. The document is deliberately map-free (rate changes and
// interest diffs are sorted arrays) so serialization is deterministic and
// plan files diff cleanly under review; money fields are decimal USD
// strings (pricing.MicroUSD's text form). Files ending in ".gz" are
// transparently (de)compressed.
//
// A version-2 step is one broker's change: "boot-vm" with the instance,
// the capacity and the "place" list; "reconfigure" with a "remove" and a
// "place" list; "retire-vm" with the "remove" list. Each list holds one
// {topic, subs} entry per topic. Version-1 documents, whose steps place
// or remove one topic's subscribers ("place" and "remove" with "topic"
// and "subs"), still read: each such step becomes a reconfigure step with
// that one edit, so the plan keeps its step count and step indices and a
// journal of a version-1 plan resumes at its recorded step. Plans are
// always written as version 2.
//
// The error contract mirrors the timeline codec: bytes that are not a
// well-formed document of this format fail with ErrBadFormat, while a
// document that parses but describes a structurally unusable plan (bad
// references, inconsistent shapes, wrong version) fails with
// deploy.ErrInvalidPlan — the same error WritePlan/SavePlan reject it with
// before anything hits the wire. Hostile documents must never panic and
// never force allocations past the actual input size.

const planFormat = "mcss-plan"

// planDoc and the structs below are the document's one schema: the
// decoder reads them with encoding/json, and the encoder (plan_encode.go)
// writes the bytes json.Marshal writes for them.
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
	Op       string         `json:"op"`
	VM       int            `json:"vm"`
	Instance *instanceDoc   `json:"instance,omitempty"`
	Capacity int64          `json:"capacity_bytes_per_hour,omitempty"`
	Remove   []placementDoc `json:"remove,omitempty"`
	Place    []placementDoc `json:"place,omitempty"`
	// Topic and Subs are the fields of a version-1 place or remove step.
	Topic *int64  `json:"topic,omitempty"`
	Subs  []int64 `json:"subs,omitempty"`
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
// document: the journal codec's compact document passed through
// json.Indent, the bytes json.MarshalIndent writes for it. A structurally
// invalid plan is rejected with deploy.ErrInvalidPlan before anything is
// written. Workload names are not part of the format: plans address
// topics and subscribers by dense ID, like every other codec in this
// package.
func WritePlan(p *deploy.Plan, out io.Writer) error {
	if err := p.Validate(); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, planBytes(p), "", "  "); err != nil {
		return err
	}
	buf.WriteByte('\n')
	_, err := out.Write(buf.Bytes())
	return err
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

// planFromDoc rebuilds the plan of a parsed document, upgrading a
// version-1 document's steps. A document without a target is a journal's
// plan-begin body: its plan has no Target, only the target's region tags,
// and is validated once the journal's Recover has rebuilt the target.
// Every other plan is validated here.
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
	fromDoc := stepFromDoc
	if doc.Version == 1 {
		fromDoc, plan.Version = stepFromV1Doc, deploy.PlanVersion
	}
	for i, sd := range doc.Steps {
		s, err := fromDoc(sd)
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

// instToDoc is also the spot-market codec's instance writer.
func instToDoc(it pricing.InstanceType) instanceDoc {
	return instanceDoc{Name: it.Name, HourlyRate: it.HourlyRate, LinkMbps: it.LinkMbps, Region: it.Region}
}

func instFromDoc(d instanceDoc) pricing.InstanceType {
	return pricing.InstanceType{Name: d.Name, HourlyRate: d.HourlyRate, LinkMbps: d.LinkMbps, Region: d.Region}
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

func stepFromDoc(doc stepDoc) (dynamic.Step, error) {
	s := dynamic.Step{Op: dynamic.StepOp(doc.Op), VM: doc.VM}
	switch s.Op {
	case dynamic.OpBootVM:
		if doc.Instance != nil {
			s.Instance = instFromDoc(*doc.Instance)
		}
		s.Capacity = doc.Capacity
	case dynamic.OpReconfigure, dynamic.OpRetireVM:
	default:
		return dynamic.Step{}, fmt.Errorf("unknown op %q", doc.Op)
	}
	if doc.Topic != nil || doc.Subs != nil {
		return dynamic.Step{}, fmt.Errorf("%s step with the topic and subs of a version-1 step", doc.Op)
	}
	var err error
	if s.Remove, err = placementsFromDoc(doc.Remove); err != nil {
		return dynamic.Step{}, err
	}
	if s.Place, err = placementsFromDoc(doc.Place); err != nil {
		return dynamic.Step{}, err
	}
	return s, nil
}

// stepFromV1Doc reads a version-1 step as the version-2 step it upgrades
// to: a boot or a retirement carries no edits, and the place or remove of
// one topic's subscribers becomes a reconfigure step with that one
// placement or removal.
func stepFromV1Doc(doc stepDoc) (dynamic.Step, error) {
	if doc.Remove != nil || doc.Place != nil {
		return dynamic.Step{}, fmt.Errorf("version-1 %s step with the remove or place list of a version-2 step", doc.Op)
	}
	switch doc.Op {
	case "place", "remove":
		if doc.Topic == nil {
			return dynamic.Step{}, fmt.Errorf("%s step without a topic", doc.Op)
		}
		edit := []placementDoc{{Topic: *doc.Topic, Subs: doc.Subs}}
		if doc.Op == "place" {
			doc.Place = edit
		} else {
			doc.Remove = edit
		}
		doc.Op, doc.Topic, doc.Subs = string(dynamic.OpReconfigure), nil, nil
	case string(dynamic.OpReconfigure):
		return dynamic.Step{}, fmt.Errorf("unknown op %q", doc.Op)
	}
	return stepFromDoc(doc)
}

// placementsFromDoc converts {topic, subs} entries with their IDs range
// checked as IDs; whether they lie in a workload is checked by the
// caller.
func placementsFromDoc(docs []placementDoc) ([]core.TopicPlacement, error) {
	var ps []core.TopicPlacement
	for _, pd := range docs {
		t, err := asTopicID(pd.Topic)
		if err != nil {
			return nil, err
		}
		subs := make([]workload.SubID, 0, len(pd.Subs))
		for _, sv := range pd.Subs {
			v, err := asSubID(sv)
			if err != nil {
				return nil, err
			}
			subs = append(subs, v)
		}
		ps = append(ps, core.TopicPlacement{Topic: t, Subs: subs})
	}
	return ps, nil
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
		ps, err := placementsFromDoc(d.Placements)
		if err != nil {
			return nil, fmt.Errorf("vm %d: %v", i, err)
		}
		for _, p := range ps {
			if int(p.Topic) >= w.NumTopics() {
				return nil, fmt.Errorf("vm %d serves topic %d of %d", i, p.Topic, w.NumTopics())
			}
			for _, v := range p.Subs {
				if int(v) >= w.NumSubscribers() {
					return nil, fmt.Errorf("vm %d serves subscriber %d of %d", i, v, w.NumSubscribers())
				}
			}
			rb := w.Rate(p.Topic) * messageBytes
			vm.Placements = append(vm.Placements, p)
			vm.InBytesPerHour += rb
			vm.OutBytesPerHour += rb * int64(len(p.Subs))
		}
		alloc.VMs = append(alloc.VMs, vm)
	}
	return alloc, nil
}
