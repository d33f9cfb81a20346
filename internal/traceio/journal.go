package traceio

import (
	"bytes"

	"github.com/pubsub-systems/mcss/internal/deploy"
)

// Journal codec ("mcss-journal"): the apply journal's WAL framing lives
// in deploy (journal.go); the plan bodies inside begin/snapshot records
// are mcss-plan JSON documents, supplied to deploy through the injected
// JournalCodec below — the dependency between the two packages is
// traceio → deploy, so the codec travels in that direction too.

// PlanJournalCodec returns the deploy.JournalCodec that encodes plan
// bodies as compact mcss-plan documents: the document WritePlan writes,
// without its indentation. A plan-begin body, a plan without its Target,
// is the same document without "target" and with "target_regions" when
// the target is region-tagged; the journal validated the whole plan
// before cutting it, and Recover validates the plan once it has rebuilt
// the target. Decoding accepts either spacing and the full document in
// begin records too, so journals written with indented or whole-plan
// bodies still recover. The error contract matches the plan codec:
// undecodable bytes fail with ErrBadFormat, a document that parses but
// violates plan invariants with deploy.ErrInvalidPlan.
func PlanJournalCodec() deploy.JournalCodec {
	return deploy.JournalCodec{
		EncodePlan: func(p *deploy.Plan) ([]byte, error) {
			if p.Target != nil {
				if err := p.Validate(); err != nil {
					return nil, err
				}
			}
			return planBytes(p), nil
		},
		DecodePlan: func(b []byte) (*deploy.Plan, error) {
			doc, err := decodePlanDoc(bytes.NewReader(b))
			if err != nil {
				return nil, err
			}
			return planFromDoc(doc)
		},
	}
}

// OpenJournal opens (or creates) the apply journal at path with the
// mcss-plan body codec.
func OpenJournal(path string, opts deploy.JournalOptions) (*deploy.Journal, error) {
	return deploy.OpenJournal(path, PlanJournalCodec(), opts)
}

// RecoverJournal replays the journal at path into a Recovery. On
// corruption the partial recovery is returned with ErrCorruptJournal.
func RecoverJournal(path string) (*deploy.Recovery, error) {
	return deploy.RecoverJournalFile(path, PlanJournalCodec())
}
