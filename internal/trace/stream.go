package trace

// Stream is a pull-based reader over a dynamic instruction trace. It is the
// streaming counterpart of []Record: consumers that only need each record
// once (featurization, timing simulation) can run in memory bounded by their
// own working set instead of the trace length.
//
// Next stores the next record in rec and reports whether one was produced.
// A (false, nil) return means the stream ended cleanly; a non-nil error ends
// the stream and is sticky. The record is fully overwritten on every call,
// so rec can be reused across calls.
type Stream interface {
	Next(rec *Record) (bool, error)
}
