package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Spans are recorded by the generator itself, around its own calls into a
// layer's public API; nothing inside the layers is instrumented (that is
// a later issue). One root span per logical op, children around each call
// the op makes. Spans live in a preallocated buffer and are written out
// after the run.

type spanName uint8

const (
	spanRoot spanName = iota
	spReadAt
	spWriteAt
	spAlloc
	spMap
	spUnmap
	spFree
	spRunTx
	spTxRead
	spTxWrite
	spIndexGet
	spIndexScan
	spIndexInsert
	spIndexDelete
)

var spanNames = [...]string{
	spanRoot:      "op",
	spReadAt:      "client.Region.ReadAt",
	spWriteAt:     "client.Region.WriteAt",
	spAlloc:       "client.Alloc",
	spMap:         "client.Map",
	spUnmap:       "client.Region.Unmap",
	spFree:        "client.Free",
	spRunTx:       "txn.RunTx",
	spTxRead:      "txn.Tx.Read",
	spTxWrite:     "txn.Tx.Write",
	spIndexGet:    "index.Get",
	spIndexScan:   "index.Scan",
	spIndexInsert: "index.Insert",
	spIndexDelete: "index.Delete",
}

// spanClass maps the child spans that are control_churn's per-step
// classes to their class index; -1 for spans that are not a class.
func spanClass(n spanName) int {
	switch n {
	case spReadAt:
		return clsRead
	case spWriteAt:
		return clsWrite
	case spAlloc:
		return clsAlloc
	case spMap:
		return clsMap
	case spUnmap:
		return clsUnmap
	case spFree:
		return clsFree
	}
	return -1
}

type span struct {
	op                   uint32
	parent               int32
	name                 spanName
	class                uint8 // root spans only
	hostStart, hostEnd   int64 // ns since the round started
	modelStart, modelEnd int64 // ns on the worker's modeled-time cursor
}

// spanBuf is one worker's span store for one traced round.
type spanBuf struct {
	t0      time.Time
	spans   []span
	open    []int32 // stack of spans not yet ended
	dropped int
}

func newSpanBuf(capacity int) *spanBuf {
	return &spanBuf{spans: make([]span, 0, capacity), open: make([]int32, 0, 8)}
}

// tracing reports whether spans are on, so ops can skip the virtual-clock
// reads that only spans need.
func (w *worker) tracing() bool { return w.spans != nil }

// begin opens a child span; -1 when tracing is off or the buffer is full.
func (w *worker) begin(name spanName) int {
	if w.spans == nil {
		return -1
	}
	return w.beginAt(name, time.Now())
}

func (w *worker) beginAt(name spanName, now time.Time) int {
	b := w.spans
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return -1
	}
	parent := int32(-1)
	if len(b.open) > 0 {
		parent = b.open[len(b.open)-1]
	}
	idx := len(b.spans)
	b.spans = append(b.spans, span{
		op: w.opID, parent: parent, name: name,
		hostStart: int64(now.Sub(b.t0)), modelStart: w.vcur,
	})
	b.open = append(b.open, int32(idx))
	return idx
}

// end closes a span begin opened, charging it modelNs of virtual time.
func (w *worker) end(idx int, modelNs int64) {
	if idx < 0 {
		return
	}
	b := w.spans
	sp := &b.spans[idx]
	sp.hostEnd = int64(time.Since(b.t0))
	sp.modelEnd = sp.modelStart + modelNs
	if sp.modelEnd < w.vcur { // children already advanced the cursor further
		sp.modelEnd = w.vcur
	}
	w.vcur = sp.modelEnd
	b.open = b.open[:len(b.open)-1]
}

func (w *worker) endRoot(idx int, class uint8, modelNs, hostNs int64) {
	if idx < 0 {
		return
	}
	w.end(idx, modelNs)
	sp := &w.spans.spans[idx]
	sp.class = class
	sp.hostEnd = sp.hostStart + hostNs // exactly the sample the loop stores
}

// traceFile is what -trace 1 leaves in the output directory.
type traceFile struct {
	Workload     string            `json:"workload"`
	Seed         int64             `json:"seed"`
	TracedOps    int               `json:"traced_ops"`
	DroppedSpans int               `json:"dropped_spans"`
	Ladder       []rung            `json:"ladder"`
	Layers       []layerRow        `json:"layers"`
	SelfSum      selfSum           `json:"self_sum"`
	Metrics      map[string]metric `json:"per_layer_metrics"`
	Spans        []spanJSON        `json:"spans"`
}

type spanJSON struct {
	ID         int    `json:"id"`
	Parent     int    `json:"parent"` // -1 for a root span
	Op         uint32 `json:"op"`
	Worker     int    `json:"worker"`
	Name       string `json:"name"`
	HostStart  int64  `json:"host_start_ns"`
	HostEnd    int64  `json:"host_end_ns"`
	ModelStart int64  `json:"model_start_ns"`
	ModelEnd   int64  `json:"model_end_ns"`
}

// exportSpans flattens the workers' span buffers (indexed by worker id)
// into the file's form.
func exportSpans(workload string, bufs []*spanBuf) (out []spanJSON, dropped int) {
	base := 0
	for worker, b := range bufs {
		dropped += b.dropped
		for i, sp := range b.spans {
			name := spanNames[sp.name]
			if sp.name == spanRoot {
				name = "op." + workload + "." + className(sp.class)
			}
			parent := -1
			if sp.parent >= 0 {
				parent = base + int(sp.parent)
			}
			out = append(out, spanJSON{
				ID: base + i, Parent: parent, Op: sp.op, Worker: worker, Name: name,
				HostStart: sp.hostStart, HostEnd: sp.hostEnd,
				ModelStart: sp.modelStart, ModelEnd: sp.modelEnd,
			})
		}
		base += len(b.spans)
	}
	return out, dropped
}

func writeTraceFile(dir string, tf *traceFile) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	path := filepath.Join(dir, "trace_"+tf.Workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("trace file: %w", cerr)
		}
	}()
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(tf); err != nil {
		return fmt.Errorf("trace file %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace file %s: %w", path, err)
	}
	return nil
}
