package service

// spec.go — the wire form of a job. The engine specs carry fields that
// cannot cross a JSON boundary (Checkpoint is an interface the service owns,
// Progress holds a func), so the service accepts JSON-clean mirrors and
// converts at admission time. Enums travel as names via the facade's
// TextMarshalers ("MABC", "inner"); the deadline is a plain number.
// Validation happens before a job is queued, with the facade's typed
// sentinels surfacing as HTTP 400s.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"bicoop"
)

// SweepJob mirrors bicoop.SweepSpec minus the service-owned resume fields.
type SweepJob struct {
	Protocols  []bicoop.Protocol       `json:"protocols,omitempty"`
	Bound      bicoop.Bound            `json:"bound,omitempty"`
	Base       bicoop.Scenario         `json:"base"`
	PowersDB   []float64               `json:"powers_db,omitempty"`
	Placements []bicoop.RelayPlacement `json:"placements,omitempty"`
	Erasures   []bicoop.ErasureLinks   `json:"erasures,omitempty"`
	Workers    int                     `json:"workers,omitempty"`
}

func (j *SweepJob) spec() bicoop.SweepSpec {
	return bicoop.SweepSpec{
		Protocols:  j.Protocols,
		Bound:      j.Bound,
		Base:       j.Base,
		PowersDB:   j.PowersDB,
		Placements: j.Placements,
		Erasures:   j.Erasures,
		Workers:    j.Workers,
	}
}

// RegionJob mirrors bicoop.RegionBatchSpec minus the resume fields. Angles
// is deprecated and ignored, like RegionBatchSpec.Angles; a job carrying it
// is still accepted and validated.
type RegionJob struct {
	Scenarios []bicoop.Scenario    `json:"scenarios"`
	Curves    []bicoop.RegionCurve `json:"curves"`
	Angles    int                  `json:"angles,omitempty"`
	Workers   int                  `json:"workers,omitempty"`
}

func (j *RegionJob) spec() bicoop.RegionBatchSpec {
	return bicoop.RegionBatchSpec{
		Scenarios: j.Scenarios,
		Curves:    j.Curves,
		Angles:    j.Angles,
		Workers:   j.Workers,
	}
}

// SimJob mirrors bicoop.SimSpec minus the Progress callback.
type SimJob struct {
	Fading      *bicoop.FadingSpec      `json:"fading,omitempty"`
	BitTrueTDBC *bicoop.BitTrueTDBCSpec `json:"bit_true_tdbc,omitempty"`
	BitTrueMABC *bicoop.BitTrueMABCSpec `json:"bit_true_mabc,omitempty"`
	Trials      int                     `json:"trials,omitempty"`
	Seed        int64                   `json:"seed,omitempty"`
	Workers     int                     `json:"workers,omitempty"`
}

// CampaignJob mirrors bicoop.CampaignSpec minus the resume fields.
type CampaignJob struct {
	Specs   []SimJob `json:"specs"`
	Workers int      `json:"workers,omitempty"`
}

func (j *CampaignJob) spec() bicoop.CampaignSpec {
	out := bicoop.CampaignSpec{Workers: j.Workers}
	for _, s := range j.Specs {
		out.Specs = append(out.Specs, bicoop.SimSpec{
			Fading:      s.Fading,
			BitTrueTDBC: s.BitTrueTDBC,
			BitTrueMABC: s.BitTrueMABC,
			Trials:      s.Trials,
			Seed:        s.Seed,
			Workers:     s.Workers,
		})
	}
	return out
}

// JobSpec is a submitted job: exactly one of Sweep, RegionBatch and
// Campaign, plus an optional deadline. It is stored verbatim as the job's
// spec.json, so a restart re-derives exactly the work the submission
// described.
type JobSpec struct {
	Sweep       *SweepJob    `json:"sweep,omitempty"`
	RegionBatch *RegionJob   `json:"region_batch,omitempty"`
	Campaign    *CampaignJob `json:"campaign,omitempty"`
	// TimeoutMS bounds the job's total running time (resume time included
	// per process lifetime — the deadline restarts with the job). Zero means
	// no deadline. A job past its deadline lands in state "timeout" with its
	// partial results intact, mirroring bcc's exit-124 contract.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ErrInvalidJob tags admission failures that are not one of the facade's
// typed spec sentinels (wrong variant count, negative deadline, unknown
// fields, trailing data).
var ErrInvalidJob = fmt.Errorf("service: invalid job")

// Validate checks the job without running it, with the same sentinels the
// engine would surface — a malformed job is rejected at admission, before
// anything is queued or persisted.
func (s JobSpec) Validate() error {
	variants := 0
	for _, set := range [...]bool{s.Sweep != nil, s.RegionBatch != nil, s.Campaign != nil} {
		if set {
			variants++
		}
	}
	if variants != 1 {
		return fmt.Errorf("%w: %d of sweep/region_batch/campaign set, want exactly 1", ErrInvalidJob, variants)
	}
	if s.TimeoutMS < 0 {
		return fmt.Errorf("%w: negative timeout_ms %d", ErrInvalidJob, s.TimeoutMS)
	}
	switch {
	case s.Sweep != nil:
		return s.Sweep.spec().Validate()
	case s.RegionBatch != nil:
		return s.RegionBatch.spec().Validate()
	default:
		return s.Campaign.spec().Validate()
	}
}

// ParseJobSpec decodes and validates a JSON job submission. Unknown fields
// are rejected so a typo'd spec fails loud instead of silently running the
// default grid, and so is anything but whitespace after the spec's one
// JSON value: a second object or stray bytes mean the client sent
// something other than what would run.
func ParseJobSpec(data []byte) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, fmt.Errorf("%w: %w", ErrInvalidJob, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return JobSpec{}, fmt.Errorf("%w: trailing data after the job spec", ErrInvalidJob)
	}
	if err := spec.Validate(); err != nil {
		return JobSpec{}, err
	}
	return spec, nil
}

// run executes the job's engine call through the log, with the service-owned
// resume fields wired by the emitters.
func (s JobSpec) run(ctx context.Context, eng *bicoop.Engine, log *ResultLog) error {
	switch {
	case s.Sweep != nil:
		return RunSweep(ctx, eng, s.Sweep.spec(), log)
	case s.RegionBatch != nil:
		return RunRegionBatch(ctx, eng, s.RegionBatch.spec(), log)
	default:
		return RunCampaign(ctx, eng, s.Campaign.spec(), log)
	}
}
