package traceio

import (
	"maps"
	"slices"
	"strconv"
	"unicode/utf8"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/deploy"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// The plan encoder writes a plan's compact document straight from the
// deploy.Plan into one buffer: the bytes json.Marshal writes for the
// plan's planDoc (field order, omitempty omissions, null for a nil fleet,
// steps or target_regions list, money as its quoted text, encoding/json's
// HTML-safe string escaping), without building the document tree or
// walking it by reflection. The planDoc structs stay the one schema: the
// decoder reads them, and TestPlanEncoderMatchesMarshal pins the encoder
// to json.Marshal of them byte for byte. Plan files are the same bytes
// passed through json.Indent, which is what json.MarshalIndent does.

// planBytes returns the compact document of a plan the caller has
// validated. A plan with its Target is written whole; a plan without it,
// a journal's plan-begin body, without "target" and with
// "target_regions" when it carries the target's region tags.
func planBytes(p *deploy.Plan) []byte {
	e := planEncoder{b: make([]byte, 0, planSize(p))}
	e.plan(p)
	return e.b
}

// planSize estimates the length of a plan's document from its pairs and
// step edits, taking IDs of up to five digits, so the buffer rarely grows.
func planSize(p *deploy.Plan) int {
	const pair, id, entry = 14, 6, 160 // "[1234,12345],", "12345,", a step, VM or fleet type
	edits := func(ps []core.TopicPlacement) (n int) {
		for _, ed := range ps {
			n += 24 + id*len(ed.Subs)
		}
		return n
	}
	d := p.Diff.Delta
	n := 1024 + entry*p.Fleet.Len() + id*len(d.NewTopics) +
		pair*(len(d.RateChanges)+len(d.Subscribe)+len(d.Unsubscribe))
	for _, s := range p.Steps {
		n += entry + edits(s.Remove) + edits(s.Place)
	}
	if t := p.Target; t != nil {
		w := t.Workload
		n += id * (2*w.NumTopics() + 2*w.NumSubscribers() + int(w.NumPairs()))
		for _, vm := range t.Allocation.VMs {
			n += entry + edits(vm.Placements)
		}
	}
	return n
}

// planEncoder appends one document to b. Lists are written with a comma
// after every element, and close turns the last one into the closing
// bracket.
type planEncoder struct{ b []byte }

func (e *planEncoder) lit(s string) { e.b = append(e.b, s...) }
func (e *planEncoder) num(n int64)  { e.b = strconv.AppendInt(e.b, n, 10) }

// close ends a list whose elements each end with a comma.
func (e *planEncoder) close(c byte) {
	if n := len(e.b) - 1; e.b[n] == ',' {
		e.b[n] = c
	} else {
		e.b = append(e.b, c)
	}
}

// money writes an amount as MicroUSD.MarshalJSON does: its text, quoted.
func (e *planEncoder) money(m pricing.MicroUSD) {
	t, _ := m.MarshalText() // never fails
	e.b = append(e.b, '"')
	e.b = append(e.b, t...)
	e.b = append(e.b, '"')
}

// str writes s as json.Marshal writes a string: `"` and `\` escaped with
// a backslash; \b, \f, \n, \r and \t short; the other control characters
// and <, > and & as \u00XX; invalid UTF-8 as \ufffd; U+2028 and U+2029
// as \u2028 and \u2029.
func (e *planEncoder) str(s string) {
	const hex = "0123456789abcdef"
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	e.b = append(append(b, s[start:]...), '"')
}

// ints writes a list of IDs or rates; nil writes null when nullable.
func ints[T ~int32 | ~int64](e *planEncoder, vs []T, nullable bool) {
	if vs == nil && nullable {
		e.lit("null")
		return
	}
	e.b = append(e.b, '[')
	for _, v := range vs {
		e.b = append(strconv.AppendInt(e.b, int64(v), 10), ',')
	}
	e.close(']')
}

func (e *planEncoder) plan(p *deploy.Plan) {
	e.lit(`{"format":`)
	e.str(planFormat)
	e.lit(`,"version":`)
	e.num(int64(p.Version))
	e.lit(`,"base_fingerprint":`)
	e.str(p.BaseFingerprint)
	e.lit(`,"tau":`)
	e.num(p.Tau)
	e.lit(`,"message_bytes":`)
	e.num(p.MessageBytes)
	e.lit(`,"model":{"instance":{`)
	e.instance(p.Model.Instance)
	e.lit(`},"hours":`)
	e.num(p.Model.Hours)
	e.lit(`,"per_gb":`)
	e.money(p.Model.PerGB)
	if c := p.Model.CapacityOverrideBytesPerHour; c != 0 {
		e.lit(`,"capacity_override_bytes_per_hour":`)
		e.num(c)
	}
	e.lit(`},"fleet":`)
	if p.Fleet.Len() == 0 {
		e.lit("null")
	} else {
		e.lit("[")
		for i := range p.Fleet.Len() {
			e.lit("{")
			e.instance(p.Fleet.Type(i))
			e.lit(`,"capacity_bytes_per_hour":`)
			e.num(p.Fleet.Capacity(i))
			e.lit("},")
		}
		e.close(']')
	}
	e.lit(`,"diff":`)
	e.diff(p.Diff)
	e.lit(`,"cost_before":`)
	e.money(p.CostBefore)
	e.lit(`,"cost_after":`)
	e.money(p.CostAfter)
	e.lit(`,"steps":`)
	if len(p.Steps) == 0 {
		e.lit("null")
	} else {
		e.lit("[")
		for _, s := range p.Steps {
			e.step(s)
		}
		e.close(']')
	}
	switch {
	case p.Target != nil:
		e.target(p.Target)
	case p.TargetRegions != nil:
		e.lit(`,"target_regions":{"topics":`)
		ints(e, p.TargetRegions.Topics, true)
		e.lit(`,"subscribers":`)
		ints(e, p.TargetRegions.Subscribers, true)
		e.lit("}")
	}
	e.lit("}")
}

// instance writes an instance type's fields, without the braces: a
// fleet entry adds its capacity to them.
func (e *planEncoder) instance(it pricing.InstanceType) {
	e.lit(`"name":`)
	e.str(it.Name)
	e.lit(`,"hourly_rate":`)
	e.money(it.HourlyRate)
	e.lit(`,"link_mbps":`)
	e.num(it.LinkMbps)
	if it.Region != "" {
		e.lit(`,"region":`)
		e.str(it.Region)
	}
}

// diff writes the diff. Its leading fields are all omitted when empty, so
// each one present ends with a comma and pairs_moved always follows.
func (e *planEncoder) diff(d deploy.Diff) {
	e.lit("{")
	if len(d.Delta.NewTopics) > 0 {
		e.lit(`"new_topics":`)
		ints(e, d.Delta.NewTopics, false)
		e.lit(",")
	}
	if n := d.Delta.NewSubscribers; n != 0 {
		e.lit(`"new_subscribers":`)
		e.num(int64(n))
		e.lit(",")
	}
	if rc := d.Delta.RateChanges; len(rc) > 0 {
		e.lit(`"rate_changes":[`)
		for _, t := range slices.Sorted(maps.Keys(rc)) {
			e.lit("[")
			e.num(int64(t))
			e.lit(",")
			e.num(rc[t])
			e.lit("],")
		}
		e.close(']')
		e.lit(",")
	}
	e.pairs(`"subscribe":[`, d.Delta.Subscribe)
	e.pairs(`"unsubscribe":[`, d.Delta.Unsubscribe)
	e.lit(`"pairs_moved":`)
	e.num(d.Stats.PairsMoved)
	e.lit(`,"pairs_kept":`)
	e.num(d.Stats.PairsKept)
	e.lit(`,"vms_before":`)
	e.num(int64(d.Stats.VMsBefore))
	e.lit(`,"vms_after":`)
	e.num(int64(d.Stats.VMsAfter))
	e.lit("}")
}

// pairs writes a non-empty subscribe or unsubscribe list, then a comma.
func (e *planEncoder) pairs(key string, ps []workload.Pair) {
	if len(ps) == 0 {
		return
	}
	e.lit(key)
	b := e.b
	var head []byte // "[t," of the current topic t, formatted once per topic
	ps = topicMajor(ps)
	for i, p := range ps {
		if i == 0 || p.Topic != ps[i-1].Topic {
			head = append(strconv.AppendInt(append(head[:0], '['), int64(p.Topic), 10), ',')
		}
		b = append(strconv.AppendInt(append(b, head...), int64(p.Sub), 10), ']', ',')
	}
	e.b = b
	e.close(']')
	e.lit(",")
}

// topicMajor returns pairs in the wire's order, topics ascending and each
// topic's subscribers ascending, in linear time for the two orders plans
// hold: a decoded plan's lists are in it already, and DeltaBetween writes
// them subscriber-major, which one stable counting pass keyed by topic
// turns into it. A list in neither order, or with a topic range wider
// than the list (a few pairs of a large workload), is sorted.
func topicMajor(ps []workload.Pair) []workload.Pair {
	if slices.IsSortedFunc(ps, byTopic) {
		return ps
	}
	numT, counting := 0, true
	for i, p := range ps {
		numT = max(numT, int(p.Topic)+1)
		counting = counting && p.Topic >= 0 && (i == 0 || bySub(ps[i-1], p) <= 0)
	}
	if !counting || numT > len(ps) {
		out := slices.Clone(ps)
		slices.SortFunc(out, byTopic)
		return out
	}
	next := make([]int, numT) // where topic t's next pair goes
	for _, p := range ps {
		next[p.Topic]++
	}
	sum := 0
	for t, n := range next {
		next[t], sum = sum, sum+n
	}
	out := make([]workload.Pair, len(ps))
	for _, p := range ps {
		out[next[p.Topic]] = p
		next[p.Topic]++
	}
	return out
}

func byTopic(a, b workload.Pair) int {
	if a.Topic != b.Topic {
		return int(a.Topic) - int(b.Topic)
	}
	return int(a.Sub) - int(b.Sub)
}

func bySub(a, b workload.Pair) int {
	if a.Sub != b.Sub {
		return int(a.Sub) - int(b.Sub)
	}
	return int(a.Topic) - int(b.Topic)
}

func (e *planEncoder) step(s dynamic.Step) {
	e.lit(`{"op":`)
	e.str(string(s.Op))
	e.lit(`,"vm":`)
	e.num(int64(s.VM))
	if s.Op == dynamic.OpBootVM {
		e.lit(`,"instance":{`)
		e.instance(s.Instance)
		e.lit("}")
		if s.Capacity != 0 {
			e.lit(`,"capacity_bytes_per_hour":`)
			e.num(s.Capacity)
		}
	}
	e.placements(`,"remove":[`, s.Remove)
	e.placements(`,"place":[`, s.Place)
	e.lit("},")
}

// placements writes a non-empty list of {topic, subs} entries.
func (e *planEncoder) placements(key string, ps []core.TopicPlacement) {
	if len(ps) == 0 {
		return
	}
	e.lit(key)
	for _, p := range ps {
		e.lit(`{"topic":`)
		e.num(int64(p.Topic))
		e.lit(`,"subs":`)
		ints(e, p.Subs, false)
		e.lit("},")
	}
	e.close(']')
}

// target writes the target: the workload's CSR and tags, then the VMs.
func (e *planEncoder) target(s *deploy.State) {
	w := s.Workload
	e.lit(`,"target":{"workload":{"rates":`)
	ints(e, w.Rates(), false)
	e.lit(`,"sub_offsets":[0,`)
	var off int64
	for v := range w.NumSubscribers() {
		off += int64(len(w.Topics(workload.SubID(v))))
		e.b = append(strconv.AppendInt(e.b, off, 10), ',')
	}
	e.close(']')
	e.lit(`,"sub_topics":[`)
	for v := range w.NumSubscribers() {
		for _, t := range w.Topics(workload.SubID(v)) {
			e.b = append(strconv.AppendInt(e.b, int64(t), 10), ',')
		}
	}
	e.close(']')
	if r := w.TopicRegions(); len(r) > 0 {
		e.lit(`,"topic_regions":`)
		ints(e, r, false)
	}
	if r := w.SubscriberRegions(); len(r) > 0 {
		e.lit(`,"sub_regions":`)
		ints(e, r, false)
	}
	e.lit(`},"allocation":[`)
	for _, vm := range s.Allocation.VMs {
		e.lit(`{"instance":{`)
		e.instance(vm.Instance)
		e.lit(`},"capacity_bytes_per_hour":`)
		e.num(vm.CapacityBytesPerHour)
		e.placements(`,"placements":[`, vm.Placements)
		e.lit("},")
	}
	e.close(']')
	e.lit("}")
}
