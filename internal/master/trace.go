package master

import (
	"context"
	"time"

	"rstore/internal/proto"
	"rstore/internal/rpc"
	"rstore/internal/simnet"
	"rstore/internal/telemetry"
)

// handleTraceFetch services one MtTraceFetch: it merges the spans its own
// ring holds for the trace with those pulled from every alive memory
// server's control endpoint (MtTracePull), so the caller receives one
// cluster-wide span set to assemble. Completeness degrades honestly: an
// unreachable server or a torn ring turns the Complete flag off rather
// than silently shrinking the set.
func (m *Master) handleTraceFetch(ctx context.Context, _ simnet.NodeID, req *rpc.Decoder) (*rpc.Encoder, error) {
	r := proto.DecodeTraceFetchRequest(req)
	if err := req.Err(); err != nil {
		return nil, err
	}
	if err := m.asPrimary(func() error { return nil }); err != nil {
		return nil, err
	}
	m.ctr.traceFetches.Inc()

	spans, complete := m.tel.Tracer().SpansFor(r.Trace)
	for _, node := range m.AliveServers() {
		resp, err := m.tracePull(node, r.Trace)
		if err != nil {
			complete = false
			continue
		}
		spans = append(spans, resp.Spans...)
		if !resp.Complete {
			complete = false
		}
	}

	out := proto.TraceFetchResponse{Spans: spans, Complete: complete}
	var e rpc.Encoder
	if err := out.Encode(&e); err != nil {
		return nil, err
	}
	return &e, nil
}

// tracePull fetches one node's spans for a trace from its control
// endpoint.
func (m *Master) tracePull(node simnet.NodeID, id telemetry.TraceID) (proto.TraceFetchResponse, error) {
	var e rpc.Encoder
	(&proto.TraceFetchRequest{Trace: id}).Encode(&e)
	payload, err := m.ctrlCall(node, 5*time.Second, proto.MtTracePull, e.Bytes())
	if err != nil {
		return proto.TraceFetchResponse{}, err
	}
	return proto.DecodeTraceFetchResponse(rpc.NewDecoder(payload))
}
