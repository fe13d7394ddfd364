package plan

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
)

// Canonical wire encoding of a resolved Plan (DESIGN.md §15). The
// distributed coordinator resolves one plan per query and ships it in
// every shard-server request envelope, so each shard executes the
// identical decisions an in-process leg would share by pointer. The
// encoding is versioned and decoding is strict: an unknown field or a
// version mismatch between coordinator and shard server is an explicit
// error, never a silently zero-valued plan — executing a half-understood
// plan would break the cross-process determinism contract.

// WireVersion is the current plan wire-format version. Bump it whenever
// a field changes meaning; mixed-version clusters then fail loudly at
// decode time instead of diverging.
const WireVersion = 1

// ErrWireVersion reports a plan encoded under a different wire version
// than this binary speaks. Matchable with errors.Is.
var ErrWireVersion = errors.New("plan: wire version mismatch")

// wirePlan is the JSON shape of an encoded Plan. Every Plan field
// appears explicitly; the version travels in-band.
type wirePlan struct {
	Version      int        `json:"version"`
	Samples      int        `json:"samples"`
	FromAccuracy bool       `json:"fromAccuracy,omitempty"`
	Eps          float64    `json:"eps,omitempty"`
	Delta        float64    `json:"delta,omitempty"`
	Pivot        bool       `json:"pivot"`
	Signatures   bool       `json:"signatures"`
	Markov       bool       `json:"markov"`
	Batch        bool       `json:"batch"`
	Adaptive     bool       `json:"adaptive,omitempty"`
	Skipped      []string   `json:"skipped,omitempty"`
	Cost         *CostModel `json:"cost,omitempty"`
}

// EncodeWire serializes a resolved plan for the request envelope.
func (p *Plan) EncodeWire() ([]byte, error) {
	if p == nil {
		return nil, fmt.Errorf("plan: encoding nil plan")
	}
	w := wirePlan{
		Version:      WireVersion,
		Samples:      p.Samples,
		FromAccuracy: p.FromAccuracy,
		Eps:          p.Eps,
		Delta:        p.Delta,
		Pivot:        p.Pivot,
		Signatures:   p.Signatures,
		Markov:       p.Markov,
		Batch:        p.Batch,
		Adaptive:     p.Adaptive,
		Skipped:      p.Skipped,
	}
	if p.Cost != (CostModel{}) {
		cost := p.Cost
		w.Cost = &cost
	}
	return json.Marshal(w)
}

// DecodeWire deserializes a plan encoded by EncodeWire. Decoding is
// strict: unknown fields are rejected (a newer coordinator cannot smuggle
// decisions past an older shard server), and a version other than
// WireVersion returns an error wrapping ErrWireVersion with both versions
// named — callers must treat it as a deployment error, not fall back to
// a zero-value plan.
func DecodeWire(data []byte) (*Plan, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var w wirePlan
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("plan: decoding wire plan: %w", err)
	}
	if w.Version != WireVersion {
		return nil, fmt.Errorf("%w: got version %d, this binary speaks %d",
			ErrWireVersion, w.Version, WireVersion)
	}
	p := &Plan{
		Samples:      w.Samples,
		FromAccuracy: w.FromAccuracy,
		Eps:          w.Eps,
		Delta:        w.Delta,
		Pivot:        w.Pivot,
		Signatures:   w.Signatures,
		Markov:       w.Markov,
		Batch:        w.Batch,
		Adaptive:     w.Adaptive,
		Skipped:      w.Skipped,
	}
	if w.Cost != nil {
		p.Cost = *w.Cost
	}
	return p, nil
}
