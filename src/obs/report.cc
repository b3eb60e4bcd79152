#include "obs/report.h"

#include <cstdio>
#include <sstream>

#include "util/table.h"

namespace sparqlog::obs {

namespace {

std::string Ms(double ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ns / 1e6);
  return buf;
}

std::string Pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f%%", fraction * 100.0);
  return buf;
}

std::string Ratio(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", v);
  return buf;
}

/// Stage throughput in MB/s: payload bytes over busy (in-stage) time.
std::string MbPerSec(uint64_t bytes, uint64_t busy_ns) {
  if (bytes == 0 || busy_ns == 0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f",
                static_cast<double>(bytes) * 1e3 /
                    static_cast<double>(busy_ns));
  return buf;
}

/// Mean items per chunk, "-" when the stage processed no chunks.
std::string PerChunk(uint64_t items, uint64_t chunks) {
  if (chunks == 0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f",
                static_cast<double>(items) / static_cast<double>(chunks));
  return buf;
}

void AppendQueueJson(JsonWriter& json, const QueueCounters& q) {
  json.BeginObject();
  json.KV("pushes", q.pushes);
  json.KV("pops", q.pops);
  json.KV("push_blocks", q.push_blocks);
  json.KV("pop_waits", q.pop_waits);
  json.KV("push_block_ns", q.push_block_ns);
  json.KV("pop_wait_ns", q.pop_wait_ns);
  json.KV("max_depth", q.max_depth);
  json.KV("rejected_pushes", q.rejected_pushes);
  json.EndObject();
}

void AppendLatencyJson(JsonWriter& json, const LatencyHistogram& h) {
  json.BeginObject();
  json.KV("count", h.count());
  json.KV("total_ns", h.total_ns());
  json.KV("min_ns", h.min_ns());
  json.KV("max_ns", h.max_ns());
  json.KV("mean_ns", h.MeanNs());
  json.KV("p50_ns", h.PercentileNs(0.5));
  json.KV("p99_ns", h.PercentileNs(0.99));
  json.EndObject();
}

/// Prometheus metric lines for one counter.
void Counter(std::string& out, const std::string& name,
             const std::string& labels, uint64_t value) {
  out += "# TYPE " + name + " counter\n";
  out += name + labels + " " + std::to_string(value) + "\n";
}

}  // namespace

void PrintSummary(std::ostream& out, const RunTelemetry& t) {
  out << "Telemetry (" << t.workers << " workers, wall "
      << Ms(static_cast<double>(t.wall_ns)) << " ms)\n\n";

  util::Table stages({"Stage", "Chunks", "In", "Out", "Malformed", "Abandoned",
                      "Quarantined", "MB/s", "In/chunk", "Mean ms", "p99 ms",
                      "Busy"});
  for (int s = 0; s < kStageCount; ++s) {
    const StageMetrics& m = t.stage(s);
    if (m.items_in == 0 && m.chunks == 0 && m.chunk_ns.count() == 0) continue;
    double busy = t.wall_ns > 0 ? static_cast<double>(m.chunk_ns.total_ns()) /
                                      static_cast<double>(t.wall_ns)
                                : 0.0;
    stages.AddRow({StageName(s), std::to_string(m.chunks),
                   std::to_string(m.items_in), std::to_string(m.items_out),
                   std::to_string(m.malformed), std::to_string(m.abandoned),
                   std::to_string(m.quarantined),
                   MbPerSec(m.bytes_in, m.chunk_ns.total_ns()),
                   PerChunk(m.items_in, m.chunks), Ms(m.chunk_ns.MeanNs()),
                   Ms(static_cast<double>(m.chunk_ns.PercentileNs(0.99))),
                   Pct(busy)});
  }
  stages.Print(out);

  out << "\n";
  util::Table queues({"Queue", "Pushes", "Pops", "Blocks", "Waits",
                      "Block ms", "Wait ms", "Max depth"});
  auto queue_row = [&queues](const char* name, const QueueCounters& q) {
    queues.AddRow({name, std::to_string(q.pushes), std::to_string(q.pops),
                   std::to_string(q.push_blocks), std::to_string(q.pop_waits),
                   Ms(static_cast<double>(q.push_block_ns)),
                   Ms(static_cast<double>(q.pop_wait_ns)),
                   std::to_string(q.max_depth)});
  };
  queue_row("chunks", t.chunk_queue);
  queue_row("shards", t.shard_queues);
  queues.Print(out);

  out << "\nQueue stall: " << Pct(t.QueueStallFraction())
      << " of worker time; shard skew: " << Ratio(t.ShardSkewRatio());
  if (!t.shard_queries.empty()) {
    out << " over " << t.shard_queries.size() << " shards (";
    for (size_t i = 0; i < t.shard_queries.size(); ++i) {
      if (i > 0) out << " ";
      out << t.shard_queries[i];
    }
    out << ")";
  }
  out << "\n";
  if (t.prefilter_pairs > 0) {
    out << "Prefilter cascade: " << t.prefilter_pairs << " pairs -> exact "
        << t.prefilter_exact_hash << ", length " << t.prefilter_length
        << ", charmap " << t.prefilter_charmap << ", histogram "
        << t.prefilter_histogram << ", DP " << t.prefilter_dp << " ("
        << t.prefilter_dp_block_steps << " block steps)\n";
  }
  const std::string memo = ParseMemoSummary(t);
  if (!memo.empty()) out << memo << "\n";
  const StageMetrics& checkpoints = t.stage(kStageCheckpoint);
  if (checkpoints.chunks > 0) {
    out << "Checkpoints: " << checkpoints.chunks << " generations, "
        << checkpoints.bytes_in << " bytes; writer mean "
        << Ms(checkpoints.chunk_ns.MeanNs()) << " ms, shard part mean "
        << Ms(t.checkpoint_part_ns.MeanNs()) << " ms ("
        << t.checkpoint_part_ns.count() << " parts)\n";
  }
  if (t.run_allocs > 0) {
    out << "Allocations: " << t.run_allocs << " (" << t.run_alloc_bytes
        << " bytes)\n";
  }
}

void AppendTelemetryJson(JsonWriter& json, const RunTelemetry& t) {
  json.Key("telemetry").BeginObject();
  json.KV("wall_ns", t.wall_ns);
  json.KV("workers", t.workers);
  json.KV("queue_stall_fraction", t.QueueStallFraction());
  json.KV("shard_skew_ratio", t.ShardSkewRatio());
  json.KV("digest", TelemetryDigest(t));
  json.KV("parse_memo_hits", t.parse_memo_hits);

  json.Key("stages").BeginArray();
  for (int s = 0; s < kStageCount; ++s) {
    const StageMetrics& m = t.stage(s);
    json.BeginObject();
    json.KV("name", StageName(s));
    json.KV("items_in", m.items_in);
    json.KV("items_out", m.items_out);
    json.KV("malformed", m.malformed);
    json.KV("abandoned", m.abandoned);
    json.KV("quarantined", m.quarantined);
    json.KV("chunks", m.chunks);
    json.KV("bytes_in", m.bytes_in);
    json.KV("lines_per_chunk",
            m.chunks > 0 ? static_cast<double>(m.items_in) /
                               static_cast<double>(m.chunks)
                         : 0.0);
    json.KV("mb_per_sec",
            m.chunk_ns.total_ns() > 0
                ? static_cast<double>(m.bytes_in) * 1e3 /
                      static_cast<double>(m.chunk_ns.total_ns())
                : 0.0);
    json.KV("alloc_bytes", m.alloc_bytes);
    json.KV("allocs", m.allocs);
    json.Key("latency");
    AppendLatencyJson(json, m.chunk_ns);
    json.EndObject();
  }
  json.EndArray();
  json.Key("checkpoint_part_latency");
  AppendLatencyJson(json, t.checkpoint_part_ns);

  json.Key("queues").BeginObject();
  json.Key("chunks");
  AppendQueueJson(json, t.chunk_queue);
  json.Key("shards");
  AppendQueueJson(json, t.shard_queues);
  json.EndObject();

  json.Key("shard_queries").BeginArray();
  for (uint64_t c : t.shard_queries) json.Value(c);
  json.EndArray();

  json.Key("prefilter").BeginObject();
  json.KV("pairs", t.prefilter_pairs);
  json.KV("exact_hash_hits", t.prefilter_exact_hash);
  json.KV("length_rejects", t.prefilter_length);
  json.KV("charmap_rejects", t.prefilter_charmap);
  json.KV("histogram_rejects", t.prefilter_histogram);
  json.KV("levenshtein_calls", t.prefilter_dp);
  json.KV("abandoned_pairs", t.prefilter_abandoned);
  json.KV("dp_block_steps", t.prefilter_dp_block_steps);
  json.EndObject();

  json.Key("allocations").BeginObject();
  json.KV("bytes", t.run_alloc_bytes);
  json.KV("count", t.run_allocs);
  json.EndObject();

  json.EndObject();
}

void WriteTelemetryJson(std::ostream& out, const RunTelemetry& t) {
  JsonWriter json(out);
  json.BeginObject();
  AppendTelemetryJson(json, t);
  json.EndObject();
  json.Finish();
}

std::string PrometheusText(const RunTelemetry& t) {
  std::string out;
  out.reserve(4096);
  for (int s = 0; s < kStageCount; ++s) {
    const StageMetrics& m = t.stage(s);
    std::string labels = std::string("{stage=\"") + StageName(s) + "\"}";
    Counter(out, "sparqlog_stage_items_in_total", labels, m.items_in);
    Counter(out, "sparqlog_stage_items_out_total", labels, m.items_out);
    Counter(out, "sparqlog_stage_malformed_total", labels, m.malformed);
    Counter(out, "sparqlog_stage_abandoned_total", labels, m.abandoned);
    Counter(out, "sparqlog_stage_quarantined_total", labels, m.quarantined);
    Counter(out, "sparqlog_stage_chunks_total", labels, m.chunks);
    Counter(out, "sparqlog_stage_bytes_in_total", labels, m.bytes_in);
    // Cumulative le-histogram of chunk latency, seconds.
    out += "# TYPE sparqlog_stage_chunk_seconds histogram\n";
    uint64_t cumulative = 0;
    for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
      uint64_t count = m.chunk_ns.BucketCount(b);
      if (count == 0) continue;
      cumulative += count;
      char le[64];
      std::snprintf(le, sizeof(le), "%.9g",
                    static_cast<double>(LatencyHistogram::BucketUpperNs(b)) /
                        1e9);
      out += "sparqlog_stage_chunk_seconds_bucket{stage=\"";
      out += StageName(s);
      out += "\",le=\"";
      out += le;
      out += "\"} " + std::to_string(cumulative) + "\n";
    }
    out += "sparqlog_stage_chunk_seconds_bucket{stage=\"";
    out += StageName(s);
    out += "\",le=\"+Inf\"} " + std::to_string(m.chunk_ns.count()) + "\n";
    char sum[64];
    std::snprintf(sum, sizeof(sum), "%.9g",
                  static_cast<double>(m.chunk_ns.total_ns()) / 1e9);
    out += "sparqlog_stage_chunk_seconds_sum{stage=\"";
    out += StageName(s);
    out += "\"} ";
    out += sum;
    out += "\n";
    out += "sparqlog_stage_chunk_seconds_count{stage=\"";
    out += StageName(s);
    out += "\"} " + std::to_string(m.chunk_ns.count()) + "\n";
  }
  auto queue = [&out](const char* name, const QueueCounters& q) {
    std::string labels = std::string("{queue=\"") + name + "\"}";
    Counter(out, "sparqlog_queue_pushes_total", labels, q.pushes);
    Counter(out, "sparqlog_queue_pops_total", labels, q.pops);
    Counter(out, "sparqlog_queue_push_blocks_total", labels, q.push_blocks);
    Counter(out, "sparqlog_queue_pop_waits_total", labels, q.pop_waits);
    Counter(out, "sparqlog_queue_push_block_ns_total", labels,
            q.push_block_ns);
    Counter(out, "sparqlog_queue_pop_wait_ns_total", labels, q.pop_wait_ns);
    out += "# TYPE sparqlog_queue_max_depth gauge\n";
    out += "sparqlog_queue_max_depth" + labels + " " +
           std::to_string(q.max_depth) + "\n";
  };
  queue("chunks", t.chunk_queue);
  queue("shards", t.shard_queues);
  for (size_t i = 0; i < t.shard_queries.size(); ++i) {
    std::string labels = "{shard=\"" + std::to_string(i) + "\"}";
    Counter(out, "sparqlog_shard_queries_total", labels, t.shard_queries[i]);
  }
  out += "# TYPE sparqlog_run_wall_seconds gauge\n";
  char wall[64];
  std::snprintf(wall, sizeof(wall), "%.9g",
                static_cast<double>(t.wall_ns) / 1e9);
  out += std::string("sparqlog_run_wall_seconds ") + wall + "\n";
  Counter(out, "sparqlog_parse_memo_hits_total", "", t.parse_memo_hits);
  // Shard-side checkpoint cost; the writer's side is the checkpoint
  // stage above (generations = chunks, bytes written = bytes_in).
  Counter(out, "sparqlog_checkpoint_parts_total", "",
          t.checkpoint_part_ns.count());
  out += "# TYPE sparqlog_checkpoint_part_seconds_total counter\n";
  char part[64];
  std::snprintf(part, sizeof(part), "%.9g",
                static_cast<double>(t.checkpoint_part_ns.total_ns()) / 1e9);
  out += std::string("sparqlog_checkpoint_part_seconds_total ") + part + "\n";
  Counter(out, "sparqlog_run_allocations_total", "", t.run_allocs);
  Counter(out, "sparqlog_run_allocated_bytes_total", "", t.run_alloc_bytes);
  return out;
}

std::string ParseMemoSummary(const RunTelemetry& t) {
  const uint64_t query_lines = t.stage(kStageParse).items_out;
  if (query_lines == 0) return "";
  return "Parse memo: " + std::to_string(t.parse_memo_hits) + " of " +
         std::to_string(query_lines) + " query lines routed without a parse (" +
         Pct(static_cast<double>(t.parse_memo_hits) /
             static_cast<double>(query_lines)) +
         ")";
}

std::string OneLineSummary(const RunTelemetry& t) {
  // Corpus runs read lines; a streak-stage run's unit is the query.
  uint64_t lines = t.stage(kStageReader).items_in;
  if (lines == 0) lines = t.stage(kStageStreak).items_in;
  double allocs_per_line =
      lines > 0 ? static_cast<double>(t.run_allocs) / static_cast<double>(lines)
                : 0.0;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "telemetry: queue stall %.2f%% | shard skew %.2fx | "
                "allocs/line %.2f | malformed %llu | lines %llu",
                t.QueueStallFraction() * 100.0, t.ShardSkewRatio(),
                allocs_per_line,
                static_cast<unsigned long long>(t.stage(kStageParse).malformed),
                static_cast<unsigned long long>(lines));
  return buf;
}

}  // namespace sparqlog::obs
