package traceio

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/spot"
)

// Spot-market format (version 1): a spot price/interruption trace as one
// JSON document — per base instance type, the per-epoch spot prices
// (decimal USD strings, pricing.MicroUSD's text form) and reclamation
// probabilities, plus the correlated reclamation storms. Files ending in
// ".gz" are transparently (de)compressed.
//
// The error contract mirrors the plan codec: bytes that are not a
// well-formed document of this format fail with ErrBadFormat, while a
// document that parses but violates the market invariants (empty series,
// prices above on-demand, probabilities outside [0, 1], storms in
// nonexistent zones) fails with spot.ErrInvalidMarket — the same error
// WriteSpotMarket rejects it with before anything hits the wire. Hostile
// documents must never panic and never force allocations past the actual
// input size.

const spotMarketFormat = "mcss-spot-market"

type spotMarketDoc struct {
	Format       string         `json:"format"`
	Version      int            `json:"version"`
	EpochMinutes int64          `json:"epoch_minutes"`
	NumAZs       int            `json:"num_azs"`
	Types        []spotTypeDoc  `json:"types"`
	Storms       []spotStormDoc `json:"storms,omitempty"`
}

type spotTypeDoc struct {
	Base        instanceDoc        `json:"base"`
	Prices      []pricing.MicroUSD `json:"prices"`
	ReclaimProb []float64          `json:"reclaim_prob"`
}

type spotStormDoc struct {
	Epoch int `json:"epoch"`
	AZ    int `json:"az"`
}

// WriteSpotMarket validates the market and serializes it as an indented
// JSON document. A structurally invalid market is rejected with
// spot.ErrInvalidMarket before anything is written.
func WriteSpotMarket(m *spot.Market, out io.Writer) error {
	if err := m.Validate(); err != nil {
		return err
	}
	doc := spotMarketDoc{
		Format:       spotMarketFormat,
		Version:      1,
		EpochMinutes: m.EpochMinutes,
		NumAZs:       m.NumAZs,
	}
	for _, tp := range m.Types {
		doc.Types = append(doc.Types, spotTypeDoc{
			Base:        instToDoc(tp.Base),
			Prices:      tp.Prices,
			ReclaimProb: tp.ReclaimProb,
		})
	}
	for _, s := range m.Storms {
		doc.Storms = append(doc.Storms, spotStormDoc{Epoch: s.Epoch, AZ: s.AZ})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = out.Write(b)
	return err
}

// ReadSpotMarket parses a spot-market document and rebuilds a validated
// spot.Market. Bytes that are not well-formed JSON of this format fail
// with ErrBadFormat; a document that parses but violates the market
// invariants fails with spot.ErrInvalidMarket.
func ReadSpotMarket(in io.Reader) (*spot.Market, error) {
	dec := json.NewDecoder(in)
	var doc spotMarketDoc
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("%w: spot-market document: %v", ErrBadFormat, err)
	}
	if doc.Format != spotMarketFormat {
		return nil, fmt.Errorf("%w: bad spot-market format %q", ErrBadFormat, doc.Format)
	}
	if doc.Version != 1 {
		return nil, fmt.Errorf("%w: unsupported spot-market version %d", ErrBadFormat, doc.Version)
	}
	m := &spot.Market{
		EpochMinutes: doc.EpochMinutes,
		NumAZs:       doc.NumAZs,
	}
	for _, td := range doc.Types {
		m.Types = append(m.Types, spot.TypePrices{
			Base:        instFromDoc(td.Base),
			Prices:      td.Prices,
			ReclaimProb: td.ReclaimProb,
		})
	}
	for _, sd := range doc.Storms {
		m.Storms = append(m.Storms, spot.Storm{Epoch: sd.Epoch, AZ: sd.AZ})
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// SaveSpotMarket writes a validated market to path; a ".gz" suffix
// enables gzip. A market that fails validation never truncates an
// existing file.
func SaveSpotMarket(m *spot.Market, path string) error {
	if err := m.Validate(); err != nil {
		return err
	}
	return saveFile(path, func(out io.Writer) error { return WriteSpotMarket(m, out) })
}

// LoadSpotMarket reads a validated market from path, transparently
// decompressing ".gz" files.
func LoadSpotMarket(path string) (*spot.Market, error) {
	return loadFile(path, ReadSpotMarket)
}
