#ifndef SPARQLOG_OBS_REPORT_H_
#define SPARQLOG_OBS_REPORT_H_

#include <ostream>
#include <string>

#include "obs/json_writer.h"
#include "obs/metrics.h"

namespace sparqlog::obs {

/// Human-readable stall/skew summary: per-stage item flow and chunk
/// latency, queue backpressure (blocks, waits, high-water depth, stall
/// share of worker time), and the per-shard query distribution.
void PrintSummary(std::ostream& out, const RunTelemetry& t);

/// Machine JSON under an open JsonWriter (the caller owns the enclosing
/// object): emits one "telemetry" key whose value is the full registry.
void AppendTelemetryJson(JsonWriter& json, const RunTelemetry& t);

/// Standalone JSON document — {"telemetry": {...}}.
void WriteTelemetryJson(std::ostream& out, const RunTelemetry& t);

/// Prometheus text exposition (version 0.0.4) of the registry —
/// counters, gauges, and cumulative `le` histograms — ready for a
/// future HTTP /metrics endpoint to return verbatim.
std::string PrometheusText(const RunTelemetry& t);

/// "Parse memo: H of Q query lines routed without a parse (P%)" for a
/// corpus run, where Q is the parse stage's routed query lines; empty
/// when the run routed none (a streak-stage run).
std::string ParseMemoSummary(const RunTelemetry& t);

/// One line for CI logs: queue stall %, shard skew ratio, allocs/line,
/// malformed count. Keep it grep-stable ("telemetry:" prefix).
std::string OneLineSummary(const RunTelemetry& t);

}  // namespace sparqlog::obs

#endif  // SPARQLOG_OBS_REPORT_H_
