package txtrace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// ---------------------------------------------------------------------------
// Chrome/Perfetto trace-event JSON export
// ---------------------------------------------------------------------------
//
// The format is the Chrome trace-event JSON array ("traceEvents" with
// ph:"X" complete events and ph:"M" metadata), which Perfetto's UI loads
// directly. ts and dur are simulated cycles (Perfetto renders them as
// microseconds; only relative magnitudes matter). pid is the tracer's index
// in the export — one "process" per simulated machine — and tid is the
// span's track (CPU core id, or the synthetic engine/orphan tracks).
//
// Output is deterministic: tracers in caller order, spans in id order,
// hand-formatted fields. Two runs of the same deterministic simulation
// export byte-identical traces.

// tidFor maps a span track to a Chrome thread id (tids must be >= 0).
func tidFor(track int32) int32 {
	switch track {
	case TrackEngine:
		return 1000
	case TrackOrphan:
		return 1001
	default:
		return track
	}
}

func trackName(track int32) string {
	switch track {
	case TrackEngine:
		return "mc2-engine"
	case TrackOrphan:
		return "orphan"
	default:
		return fmt.Sprintf("core%d", track)
	}
}

// flagString renders annotation flags (FlagDone is implied and omitted).
func flagString(f Flags) string {
	var b []byte
	add := func(s string) {
		if len(b) > 0 {
			b = append(b, '|')
		}
		b = append(b, s...)
	}
	if f&FlagWrite != 0 {
		add("write")
	}
	if f&FlagRowHit != 0 {
		add("row_hit")
	}
	if f&FlagRowMiss != 0 {
		add("row_miss")
	}
	if f&FlagRejected != 0 {
		add("rejected")
	}
	return string(b)
}

// EventWriter incrementally builds one Chrome trace-event JSON document.
// It exists so other planes (the timeline's ph:"C" counter tracks) can
// merge their events into the same document as the span trees and share
// one timebase; Export is a thin wrapper. Formatting is hand-rolled and
// deterministic: Close the writer to finish the document.
type EventWriter struct {
	bw    *bufio.Writer
	first bool
}

// NewEventWriter starts a trace-event document on w.
func NewEventWriter(w io.Writer) *EventWriter {
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")
	return &EventWriter{bw: bw, first: true}
}

// Emit appends one pre-formatted JSON event object.
func (ew *EventWriter) Emit(line string) {
	if !ew.first {
		ew.bw.WriteString(",")
	}
	ew.first = false
	ew.bw.WriteString("\n")
	ew.bw.WriteString(line)
}

// WriteTracer emits tracer t's process/track metadata and spans under the
// given pid. Spans appear in id order.
func (ew *EventWriter) WriteTracer(pid int, t *Tracer) {
	spans := t.Spans()
	// Metadata: name the process and every track that appears.
	ew.Emit(fmt.Sprintf(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":"machine%d"}}`, pid, pid))
	tracks := map[int32]bool{}
	var order []int32
	for _, sp := range spans {
		if !tracks[sp.Track] {
			tracks[sp.Track] = true
			order = append(order, sp.Track)
		}
	}
	sort.Slice(order, func(i, j int) bool { return tidFor(order[i]) < tidFor(order[j]) })
	for _, tr := range order {
		ew.Emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":"%s"}}`,
			pid, tidFor(tr), trackName(tr)))
	}
	for _, sp := range spans {
		line := fmt.Sprintf(`{"name":"%s","cat":"mem","ph":"X","pid":%d,"tid":%d,"ts":%d,"dur":%d,"args":{"span":%d,"tx":%d`,
			sp.Stage, pid, tidFor(sp.Track), sp.Start, sp.End-sp.Start, sp.ID, sp.Root)
		if sp.Parent != 0 {
			line += `,"parent":` + strconv.FormatUint(sp.Parent, 10)
		}
		line += `,"addr":"0x` + strconv.FormatUint(sp.Addr, 16) + `"`
		if fs := flagString(sp.Flags); fs != "" {
			line += `,"flags":"` + fs + `"`
		}
		line += "}}"
		ew.Emit(line)
	}
}

// Close finishes the document and flushes buffered output.
func (ew *EventWriter) Close() error {
	ew.bw.WriteString("\n]}\n")
	return ew.bw.Flush()
}

// Export writes the tracers' flight recorders as one Chrome trace-event
// JSON document. Nil tracers are skipped (but still consume a pid slot, so
// machine numbering is stable across configurations).
func Export(w io.Writer, tracers []*Tracer) error {
	ew := NewEventWriter(w)
	for pid, t := range tracers {
		if t == nil {
			continue
		}
		ew.WriteTracer(pid, t)
	}
	return ew.Close()
}

// Dump writes this tracer's flight recorder alone — the anomaly-hook path.
func (t *Tracer) Dump(w io.Writer) error {
	return Export(w, []*Tracer{t})
}
