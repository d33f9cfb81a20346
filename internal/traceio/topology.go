package traceio

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/pricing"
)

// Topology format (version 1): a multi-region network model as one JSON
// document — the region list, the inter-region RTT matrix in milliseconds,
// and the per-GB egress price matrix (decimal USD strings,
// pricing.MicroUSD's text form). Files ending in ".gz" are transparently
// (de)compressed.
//
// The error contract mirrors the plan and spot-market codecs: bytes that
// are not a well-formed document of this format fail with ErrBadFormat,
// while a document that parses but violates the topology invariants (no
// regions, duplicate names, mismatched matrix shapes, negative entries,
// non-zero diagonal egress) fails with core.ErrInvalidTopology — the same
// error WriteTopology rejects it with before anything hits the wire.
// Hostile documents must never panic and never force allocations past the
// actual input size.

const topologyFormat = "mcss-topology"

type topologyDoc struct {
	Format      string               `json:"format"`
	Version     int                  `json:"version"`
	Regions     []string             `json:"regions"`
	RTTMillis   [][]int64            `json:"rtt_millis"`
	EgressPerGB [][]pricing.MicroUSD `json:"egress_per_gb"`
}

// topologyToDoc flattens a topology back into its constructor inputs.
func topologyToDoc(t *core.Topology) topologyDoc {
	n := t.NumRegions()
	doc := topologyDoc{
		Format:      topologyFormat,
		Version:     1,
		Regions:     t.Regions(),
		RTTMillis:   make([][]int64, n),
		EgressPerGB: make([][]pricing.MicroUSD, n),
	}
	for i := 0; i < n; i++ {
		doc.RTTMillis[i] = make([]int64, n)
		doc.EgressPerGB[i] = make([]pricing.MicroUSD, n)
		for j := 0; j < n; j++ {
			doc.RTTMillis[i][j] = t.RTTMillis(i, j)
			doc.EgressPerGB[i][j] = t.EgressPerGB(i, j)
		}
	}
	return doc
}

// WriteTopology serializes a topology as an indented JSON document. A nil
// topology is rejected with core.ErrInvalidTopology before anything is
// written (a *core.Topology built with core.NewTopology is valid by
// construction).
func WriteTopology(t *core.Topology, out io.Writer) error {
	if t == nil || t.NumRegions() == 0 {
		return fmt.Errorf("%w: nil topology", core.ErrInvalidTopology)
	}
	b, err := json.MarshalIndent(topologyToDoc(t), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = out.Write(b)
	return err
}

// ReadTopology parses a topology document and rebuilds a validated
// core.Topology. Bytes that are not well-formed JSON of this format fail
// with ErrBadFormat; a document that parses but violates the topology
// invariants fails with core.ErrInvalidTopology.
func ReadTopology(in io.Reader) (*core.Topology, error) {
	dec := json.NewDecoder(in)
	var doc topologyDoc
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("%w: topology document: %v", ErrBadFormat, err)
	}
	if doc.Format != topologyFormat {
		return nil, fmt.Errorf("%w: bad topology format %q", ErrBadFormat, doc.Format)
	}
	if doc.Version != 1 {
		return nil, fmt.Errorf("%w: unsupported topology version %d", ErrBadFormat, doc.Version)
	}
	return core.NewTopology(doc.Regions, doc.RTTMillis, doc.EgressPerGB)
}

// SaveTopology writes a topology to path; a ".gz" suffix enables gzip. A
// rejected topology never truncates an existing file.
func SaveTopology(t *core.Topology, path string) error {
	return saveFile(path, func(out io.Writer) error { return WriteTopology(t, out) })
}

// LoadTopology reads a validated topology from path, transparently
// decompressing ".gz" files.
func LoadTopology(path string) (*core.Topology, error) {
	return loadFile(path, ReadTopology)
}
