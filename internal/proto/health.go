package proto

import (
	"rstore/internal/health"
	"rstore/internal/rpc"
	"rstore/internal/simnet"
	"rstore/internal/telemetry"
)

// HealthReport is the MtHealth response: the primary master's current
// alert table, its bounded health-event ring, and the cluster-merged
// telemetry backing the verdicts (so the CLI can print per-window rates
// from the same data the rules judged).
type HealthReport struct {
	Alerts []health.Alert
	Events []health.Event
	// Windows is the cluster-merged telemetry snapshot, lifetime totals
	// and window rings alike.
	Windows telemetry.Snapshot
}

// Encode marshals the report. The snapshot travels in its own binary
// format nested as a byte field, as in NodeStats.
func (r *HealthReport) Encode(e *rpc.Encoder) error {
	e.U32(uint32(len(r.Alerts)))
	for _, a := range r.Alerts {
		e.String(a.Rule)
		e.String(a.Target)
		e.String(a.Kind)
		e.U8(uint8(a.Severity))
		e.U8(uint8(a.State))
		e.String(a.Msg)
		e.U64(uint64(a.FiredV))
		e.U64(uint64(a.ResolvedV))
	}
	e.U32(uint32(len(r.Events)))
	for _, ev := range r.Events {
		e.U64(uint64(ev.V))
		e.String(ev.Rule)
		e.String(ev.Target)
		e.U8(uint8(ev.Severity))
		e.Bool(ev.Firing)
		e.String(ev.Msg)
	}
	return encodeTelemetry(e, r.Windows)
}

// DecodeHealthReport unmarshals a HealthReport.
func DecodeHealthReport(d *rpc.Decoder) (HealthReport, error) {
	var r HealthReport
	na := d.U32()
	for i := uint32(0); i < na && d.Err() == nil; i++ {
		r.Alerts = append(r.Alerts, health.Alert{
			Rule:      d.String(),
			Target:    d.String(),
			Kind:      d.String(),
			Severity:  health.Severity(d.U8()),
			State:     health.AlertState(d.U8()),
			Msg:       d.String(),
			FiredV:    simnet.VTime(d.U64()),
			ResolvedV: simnet.VTime(d.U64()),
		})
	}
	ne := d.U32()
	for i := uint32(0); i < ne && d.Err() == nil; i++ {
		r.Events = append(r.Events, health.Event{
			V:        simnet.VTime(d.U64()),
			Rule:     d.String(),
			Target:   d.String(),
			Severity: health.Severity(d.U8()),
			Firing:   d.Bool(),
			Msg:      d.String(),
		})
	}
	var err error
	if r.Windows, err = decodeTelemetry(d); err != nil {
		return HealthReport{}, err
	}
	return r, nil
}
