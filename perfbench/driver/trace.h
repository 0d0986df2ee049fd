#pragma once

#include <ostream>

// Span recording for the traced driver build. trace_on.cpp interposes
// on layer entry points with -Wl,--wrap and aggregates spans in memory
// per (name, parent); trace_off.cpp is the no-op used by the timed,
// untraced driver. Only the thread that called trace_start() records.
namespace perfbench {

/// True when the span wrappers are linked into this binary.
bool trace_linked();

/// Starts / stops recording on the calling thread. Spans accumulate
/// across start/stop pairs until the process exits.
void trace_start();
void trace_stop();

/// Writes the aggregate as one JSON object:
/// {"spans": {name: {"calls", "total_ms", "self_ms",
///                   "parents": {parent: calls}}},
///  "extras": {name: value}, "samples": {name: [values]}}.
void trace_write_json(std::ostream& os);

}  // namespace perfbench
