package service

// emit.go — the CSV emitters binding each streaming engine entry point to a
// ResultLog. Every emitter runs through one resume recipe, (*ResultLog).run:
// Start from the log's loaded watermark, header exactly when fresh,
// Checkpoint when the log persists one, and a final flush so rows past the
// last checkpoint survive a graceful stop as valid partial output. The
// sweep row format is the bcc CLI's, unchanged — the CLI now emits through
// RunSweep, so there is exactly one tested implementation of the
// byte-offset resume discipline.
//
// Rows are built with strconv into the log's reusable line buffer, so
// writing one allocates nothing. Each row type's comment gives the fmt
// format it reproduces byte for byte: %d is AppendInt, %g is AppendFloat
// with precision -1 and %.12g is AppendFloat with precision 12.
// Consecutive sweep rows repeat their power and gains for every protocol
// of a grid point, so the log keeps the last sweep row's four values with
// their formatted bytes and reuses the bytes while all four are unchanged:
// shortest-form float formatting is the costliest part of a row.

import (
	"context"
	"math"
	"strconv"

	"bicoop"
)

// Row field encoders. Each appends one field and a trailing comma;
// writeRow turns the last comma into the newline.
func appendIntField(b []byte, v int) []byte {
	return append(strconv.AppendInt(b, int64(v), 10), ',')
}

func appendShortestField(b []byte, v float64) []byte {
	return append(strconv.AppendFloat(b, v, 'g', -1, 64), ',')
}

func appendPrec12Field(b []byte, v float64) []byte {
	return append(strconv.AppendFloat(b, v, 'g', 12, 64), ',')
}

func appendStringField(b []byte, s string) []byte {
	return append(append(b, s...), ',')
}

// writeRow ends the row built in b and appends it to the stream, keeping
// b's storage as the log's line buffer.
func (l *ResultLog) writeRow(b []byte) error {
	b[len(b)-1] = '\n'
	l.line = b
	return l.write(b)
}

// writeHeader appends a CSV header line.
func (l *ResultLog) writeHeader(h string) error {
	return l.write(append(l.line[:0], h...))
}

// run is the resume recipe every emitter shares. It points the spec's
// start and checkpoint fields at the log — the loaded watermark, and the
// log itself exactly when it persists a checkpoint — writes header exactly
// when the run is fresh, runs exec, and flushes so rows past the last
// checkpoint survive a graceful stop. exec must read the spec after run
// has set the fields.
func (l *ResultLog) run(header string, start *int, ck *bicoop.Checkpointer, exec func() error) error {
	*start = l.Watermark()
	if l.Checkpointed() {
		*ck = l
	}
	if l.Fresh() {
		if err := l.writeHeader(header); err != nil {
			return err
		}
	}
	runErr := exec()
	if err := l.Flush(); err != nil && runErr == nil {
		runErr = err
	}
	return runErr
}

// sweepHeader: one row per grid point, bcc's historical format. A row is
// "%d,%g,%g,%g,%g,%s,%s,%.12g,%.12g,%.12g\n" of (index, power, gab, gar,
// gbr, protocol, bound, ra, rb, sum).
const sweepHeader = "index,power_db,gab_db,gar_db,gbr_db,protocol,bound,ra,rb,sum\n"

// sweepRow writes one grid point's row. The "power,gab,gar,gbr," fields
// are formatted only when one of the four values differs from the previous
// sweep row's; otherwise the stored bytes are copied. Values are compared
// by their bits, because +0 and -0 are equal but print differently and
// NaN equals nothing.
func (l *ResultLog) sweepRow(pt bicoop.SweepPoint) error {
	key := [4]uint64{
		math.Float64bits(pt.PowerDB),
		math.Float64bits(pt.Scenario.GabDB),
		math.Float64bits(pt.Scenario.GarDB),
		math.Float64bits(pt.Scenario.GbrDB),
	}
	if len(l.scenario) == 0 || key != l.scenarioKey {
		s := appendShortestField(l.scenario[:0], pt.PowerDB)
		s = appendShortestField(s, pt.Scenario.GabDB)
		s = appendShortestField(s, pt.Scenario.GarDB)
		l.scenario, l.scenarioKey = appendShortestField(s, pt.Scenario.GbrDB), key
	}
	b := appendIntField(l.line[:0], pt.Index)
	b = append(b, l.scenario...)
	b = appendStringField(b, pt.Protocol.String())
	b = appendStringField(b, pt.Bound.String())
	b = appendPrec12Field(b, pt.Result.Point.Ra)
	b = appendPrec12Field(b, pt.Result.Point.Rb)
	b = appendPrec12Field(b, pt.Result.Sum)
	return l.writeRow(b)
}

// RunSweep streams a sweep's points into the log as CSV, resuming past the
// log's watermark. The watermark unit is grid points.
func RunSweep(ctx context.Context, eng *bicoop.Engine, spec bicoop.SweepSpec, log *ResultLog) error {
	return log.run(sweepHeader, &spec.Start, &spec.Checkpoint, func() error {
		return eng.Sweep(ctx, spec, log.sweepRow)
	})
}

// regionHeader: one row per polygon vertex, curves in enumeration order
// (scenario-major). The watermark unit is whole curves, matching
// RegionBatch yields. A row is "%d,%d,%s,%s,%d,%.12g,%.12g\n" of
// (scenario, curve, protocol, bound, vertex, ra, rb).
const regionHeader = "scenario_idx,curve_idx,protocol,bound,vertex,ra,rb\n"

// regionRow writes one vertex's row.
func (l *ResultLog) regionRow(pt bicoop.RegionBatchPoint, v int, p bicoop.RatePoint) error {
	b := appendIntField(l.line[:0], pt.ScenarioIdx)
	b = appendIntField(b, pt.CurveIdx)
	b = appendStringField(b, pt.Curve.Protocol.String())
	b = appendStringField(b, pt.Curve.Bound.String())
	b = appendIntField(b, v)
	b = appendPrec12Field(b, p.Ra)
	b = appendPrec12Field(b, p.Rb)
	return l.writeRow(b)
}

// RunRegionBatch streams a region batch's completed curves into the log as
// CSV, one row per vertex, resuming past the log's watermark (in curves).
func RunRegionBatch(ctx context.Context, eng *bicoop.Engine, spec bicoop.RegionBatchSpec, log *ResultLog) error {
	return log.run(regionHeader, &spec.Start, &spec.Checkpoint, func() error {
		return eng.RegionBatch(ctx, spec, func(pt bicoop.RegionBatchPoint) error {
			for v, p := range pt.Region.Vertices() {
				if err := log.regionRow(pt, v, p); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

// campaignHeader/campaign rows: long format, one row per (run, metric,
// label) triple, so heterogeneous campaigns (fading and bit-true specs
// mixed) share one schema. Fading protocols emit in AllProtocols order so
// the file is deterministic despite the map-typed result. The watermark
// unit is completed runs, matching SimulateBatch yields. A float row is
// "%d,%s,%s,%.12g\n" and an int row "%d,%s,%s,%d\n" of (run, metric,
// label, value).
const campaignHeader = "run,metric,label,value\n"

// campaignFloatRow writes one float-valued metric row.
func (l *ResultLog) campaignFloatRow(run int, metric, label string, v float64) error {
	b := appendIntField(l.line[:0], run)
	b = appendStringField(b, metric)
	b = appendStringField(b, label)
	return l.writeRow(appendPrec12Field(b, v))
}

// campaignIntRow writes one integer-valued metric row.
func (l *ResultLog) campaignIntRow(run int, metric, label string, v int) error {
	b := appendIntField(l.line[:0], run)
	b = appendStringField(b, metric)
	b = appendStringField(b, label)
	return l.writeRow(appendIntField(b, v))
}

// RunCampaign streams a campaign's completed runs into the log as long-form
// CSV, resuming past the log's watermark (in runs).
func RunCampaign(ctx context.Context, eng *bicoop.Engine, spec bicoop.CampaignSpec, log *ResultLog) error {
	return log.run(campaignHeader, &spec.Start, &spec.Checkpoint, func() error {
		_, err := eng.SimulateBatch(ctx, spec, func(i int, r bicoop.SimResult) error {
			return emitSimResult(log, i, r)
		})
		return err
	})
}

// emitSimResult writes one completed run's rows.
func emitSimResult(log *ResultLog, run int, r bicoop.SimResult) error {
	if err := log.campaignIntRow(run, "trials", "", r.Trials); err != nil {
		return err
	}
	if r.Fading != nil {
		for _, p := range bicoop.AllProtocols() {
			st, ok := r.Fading[p]
			if !ok {
				continue
			}
			if err := log.campaignFloatRow(run, "mean_opt_sum_rate", p.String(), st.MeanOptSumRate); err != nil {
				return err
			}
			if err := log.campaignFloatRow(run, "outage_prob", p.String(), st.OutageProb); err != nil {
				return err
			}
		}
	}
	if r.BitTrue != nil {
		if err := log.campaignFloatRow(run, "success_prob", "", r.BitTrue.SuccessProb); err != nil {
			return err
		}
		if err := log.campaignIntRow(run, "relay_failures", "", r.BitTrue.RelayFailures); err != nil {
			return err
		}
		if err := log.campaignIntRow(run, "terminal_failures", "", r.BitTrue.TerminalFailures); err != nil {
			return err
		}
	}
	for phase, d := range r.Durations {
		if err := log.campaignFloatRow(run, "duration", strconv.Itoa(phase), d); err != nil {
			return err
		}
	}
	return nil
}
