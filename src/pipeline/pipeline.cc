#include "pipeline/pipeline.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/alloc_tracker.h"
#include "pipeline/merge.h"
#include "sparql/parser.h"
#include "util/arena.h"
#include "util/crc32c.h"

namespace sparqlog::pipeline {

void QuarantineReport::SortAndCap() {
  std::sort(samples.begin(), samples.end(),
            [](const QuarantineSample& a, const QuarantineSample& b) {
              return a.chunk != b.chunk ? a.chunk < b.chunk
                                        : a.line_index < b.line_index;
            });
  if (samples.size() > kMaxSamples) samples.resize(kMaxSamples);
}

ParallelLogPipeline::ParallelLogPipeline(PipelineOptions options)
    : options_(std::move(options)) {
  threads_ = options_.threads > 0
                 ? options_.threads
                 : static_cast<int>(std::thread::hardware_concurrency());
  if (threads_ < 1) threads_ = 1;
}

namespace {

/// Chunk with a stable id so trace spans from different stages can be
/// correlated ("which chunk was parsing while shard 3 stalled?").
struct NumberedChunk {
  uint64_t id = 0;
  LineChunk data;
};

/// Routed batch: the entries of one chunk bound for one shard.
struct ShardBatch {
  uint64_t chunk = 0;
  /// Keeps the chunk's parse scratch (whose arena owns every Query in
  /// `entries`) alive until the last shard is done consuming. The
  /// shared_ptr's deleter resets the scratch and returns it to the
  /// worker pool. Declared before `entries` deliberately: members are
  /// destroyed in reverse declaration order, and the entries' Query
  /// destructors call deallocate on the scratch's arena — the arena
  /// must still exist (and must not be reset) while they run.
  std::shared_ptr<corpus::ParseScratch> keepalive;
  std::vector<corpus::ParsedLine> entries;
};

/// Mutex-guarded free list of parse scratches. Workers take one per
/// chunk; the ShardBatch keepalive returns it (reset) once every shard
/// has consumed the chunk's entries. Steady state: a handful of warm
/// scratches cycling with zero heap traffic.
class ScratchPool {
 public:
  std::shared_ptr<corpus::ParseScratch> Acquire() {
    std::unique_ptr<corpus::ParseScratch> s;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        s = std::move(free_.back());
        free_.pop_back();
      }
    }
    if (!s) s = std::make_unique<corpus::ParseScratch>();
    return std::shared_ptr<corpus::ParseScratch>(
        s.release(), [this](corpus::ParseScratch* p) {
          p->Reset();
          std::lock_guard<std::mutex> lock(mu_);
          free_.emplace_back(p);
        });
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<corpus::ParseScratch>> free_;
};

/// Shared collector for quarantined lines. The mutex is only ever
/// touched on the exception path — a fault-free run never locks it.
/// Samples are kept in (chunk, line_index) order and capped, so the
/// report is deterministic regardless of which worker hit which fault
/// first.
class QuarantineCollector {
 public:
  void Record(uint64_t chunk, uint64_t line_index, std::string_view line,
              const char* reason) noexcept {
    std::lock_guard<std::mutex> lock(mu_);
    ++report_.count;
    // Capturing the sample allocates; under genuine memory exhaustion
    // the capture may fail, in which case the sample is dropped but the
    // count (and the stats' quarantined bucket) stays correct.
    try {
      QuarantineSample sample;
      sample.chunk = chunk;
      sample.line_index = line_index;
      sample.line.assign(line.data(), line.size());
      sample.reason = reason;
      report_.samples.push_back(std::move(sample));
      report_.SortAndCap();
    } catch (...) {
    }
  }

  QuarantineReport Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(report_);
  }

 private:
  std::mutex mu_;
  QuarantineReport report_;
};

/// Where the reader, the shard consumers and the checkpoint writer meet
/// for a journaled run's barriers. The reader records barrier e when it
/// has read W_e chunks; each shard delivers its part once it has
/// consumed every chunk below W_e; the delivery that completes a
/// barrier returns it for the writer. Barriers complete in order: every
/// shard delivers e before e + 1, so the last delivery of e precedes the
/// last delivery of e + 1.
class BarrierBoard {
 public:
  BarrierBoard(uint64_t every, size_t shards, uint64_t headroom)
      : every_(every), shards_(shards), headroom_(headroom) {}

  /// Reader: records the barrier after `chunks` chunks. Called before
  /// the chunk that reaches it is queued, so it precedes every delivery.
  void Record(uint64_t chunks, uint64_t offset, uint64_t lines) {
    std::lock_guard<std::mutex> lock(mu_);
    Open& open = open_.emplace_back();
    open.checkpoint.chunks = chunks;
    open.checkpoint.offset = offset;
    open.checkpoint.lines = lines;
    open.checkpoint.parts.resize(shards_);
  }

  /// Reader: blocks until chunk `next` (0-based) lies within `headroom`
  /// chunks of the oldest barrier some shard has not taken. False once
  /// a publish failed: the reader stops.
  bool AwaitRoom(uint64_t next) {
    std::unique_lock<std::mutex> lock(mu_);
    taken_.wait(lock, [&] {
      return failed_ || open_.empty() ||
             next < open_.front().checkpoint.chunks + headroom_;
    });
    return !failed_;
  }

  /// Shard `shard`: delivers its part of the barrier at `chunks`.
  /// Returns the barrier when this delivery completed it.
  std::optional<BarrierCheckpoint> Deliver(uint64_t chunks, size_t shard,
                                           ShardCheckpoint part) {
    std::lock_guard<std::mutex> lock(mu_);
    Open& open = open_[(chunks - open_.front().checkpoint.chunks) / every_];
    open.checkpoint.parts[shard] = std::move(part);
    if (++open.delivered < shards_) return std::nullopt;
    // Only the oldest open barrier can complete (see the class comment).
    BarrierCheckpoint done = std::move(open_.front().checkpoint);
    open_.pop_front();
    taken_.notify_all();
    return done;
  }

  /// A part or a publish failed: keeps the first error and stops the
  /// reader at its next chunk. Later barriers are not published.
  void Fail(util::Status error) {
    std::lock_guard<std::mutex> lock(mu_);
    if (failed_) return;
    failed_ = true;
    error_ = std::move(error);
    taken_.notify_all();
  }

  bool failed() {
    std::lock_guard<std::mutex> lock(mu_);
    return failed_;
  }

  util::Status error() {
    std::lock_guard<std::mutex> lock(mu_);
    return error_;
  }

 private:
  struct Open {
    BarrierCheckpoint checkpoint;
    size_t delivered = 0;
  };

  const uint64_t every_;
  const size_t shards_;
  const uint64_t headroom_;
  std::mutex mu_;
  std::condition_variable taken_;
  std::deque<Open> open_;  // recorded, not yet complete; oldest first
  bool failed_ = false;
  util::Status error_;
};

/// Bounded retries for TransientChunkError before the reader gives up
/// and treats the failure as persistent.
constexpr int kMaxTransientRetries = 3;

/// A parse worker's exact-line memo: raw query line -> what parsing it
/// gave (valid or not, and the hash it routes by), packed into the
/// interner's value bytes. Flushed whole when its storage passes 1 MB.
/// See the worker loop in Run for when a hit may skip the parse.
constexpr size_t kParseMemoBytes = size_t{1} << 20;
constexpr size_t kMemoValueBytes = 1 + sizeof(uint64_t);

std::string_view PackMemoValue(const corpus::ParsedLine& parsed,
                               char (&buf)[kMemoValueBytes]) {
  const uint64_t hash = parsed.valid ? parsed.canonical_hash : parsed.line_hash;
  buf[0] = parsed.valid ? 1 : 0;
  std::memcpy(buf + 1, &hash, sizeof(hash));
  return std::string_view(buf, kMemoValueBytes);
}

/// The routed entry for a memo hit: the first occurrence's verdict and
/// hash, and no AST.
corpus::ParsedLine UnpackMemoValue(std::string_view value) {
  corpus::ParsedLine out;
  out.is_query = true;
  out.valid = value[0] != 0;
  uint64_t hash;
  std::memcpy(&hash, value.data() + 1, sizeof(hash));
  (out.valid ? out.canonical_hash : out.line_hash) = hash;
  return out;
}

}  // namespace

PipelineResult ParallelLogPipeline::Run(ChunkSource& source) {
  std::vector<std::unique_ptr<Shard>> local_shards;
  return Run(source, local_shards);
}

std::vector<std::unique_ptr<Shard>> ParallelLogPipeline::MakeShards() const {
  ShardOptions shard_options;
  shard_options.dataset = options_.dataset;
  shard_options.use_valid_corpus = options_.use_valid_corpus;
  shard_options.analysis_limits = options_.analysis_limits;
  std::vector<std::unique_ptr<Shard>> out;
  const size_t n = shards();
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(std::make_unique<Shard>(shard_options));
  }
  return out;
}

PipelineResult ParallelLogPipeline::Run(
    ChunkSource& source, std::vector<std::unique_ptr<Shard>>& shards,
    CheckpointBarriers* barriers) {
  // Caller-owned shards (journal resume) pin the shard count: routing is
  // hash % num_shards, so continuing with a different count would split
  // duplicate classes across shards.
  const size_t num_shards = shards.empty() ? this->shards() : shards.size();
  const size_t chunk_size = options_.chunk_size > 0 ? options_.chunk_size : 1;
  const size_t capacity =
      options_.queue_capacity > 0 ? options_.queue_capacity : 1;
  // Telemetry: worker w owns slot w of `telem` (and ring w when
  // tracing), mutates it lock-free, and the run merges the slots once
  // after the joins. Slot 0 = reader, 1..T = parse workers,
  // 1+T..T+S = shard consumers.
  const bool collect = options_.telemetry.enabled();
  const bool tracing = collect && options_.telemetry.trace;
  const size_t telem_count = 1 + static_cast<size_t>(threads_) + num_shards;
  std::vector<obs::RunTelemetry> telem(collect ? telem_count : 0);
  std::vector<obs::TraceRing> rings;
  if (tracing) {
    rings.reserve(telem_count);
    for (size_t i = 0; i < telem_count; ++i) {
      rings.emplace_back(obs::kTraceRingCapacity);
    }
  }
  const uint64_t run_start = collect ? obs::NowNs() : 0;
  const uint64_t alloc_bytes0 = collect ? obs::AllocatedBytes() : 0;
  const uint64_t alloc_count0 = collect ? obs::AllocationCount() : 0;

  if (shards.empty()) {
    shards = MakeShards();
  }

  using Batch = std::vector<corpus::ParsedLine>;
  // Shared scratch pool: declared before the queues/threads so it
  // outlives every in-flight ShardBatch keepalive.
  ScratchPool scratch_pool;
  BoundedQueue<NumberedChunk> chunk_queue(capacity);
  std::vector<std::unique_ptr<BoundedQueue<ShardBatch>>> shard_queues;
  shard_queues.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shard_queues.push_back(std::make_unique<BoundedQueue<ShardBatch>>(capacity));
  }

  std::atomic<uint64_t> lines_consumed{0};
  QuarantineCollector quarantine;

  // Checkpoint barriers (journaled runs only). The writer publishes
  // completed barriers in order; its queue holds one barrier while it
  // writes the previous, so a writer slower than the barrier cadence
  // stalls the shard that completes the next one instead of buffering
  // shard state without bound.
  const uint64_t every = barriers ? std::max<size_t>(barriers->every, 1) : 0;
  const uint64_t max_chunks = barriers ? barriers->max_chunks : 0;
  std::optional<BarrierBoard> board;
  BoundedQueue<BarrierCheckpoint> writer_queue(1);
  obs::StageMetrics writer_stage;
  std::thread writer;
  if (barriers) {
    board.emplace(every, num_shards, capacity);
    writer = std::thread([&] {
      while (std::optional<BarrierCheckpoint> checkpoint = writer_queue.Pop()) {
        if (board->failed()) continue;  // drain after a failure
        const uint64_t t0 = collect ? obs::NowNs() : 0;
        util::Result<uint64_t> written = uint64_t{0};
        try {
          written = barriers->publish(*checkpoint);
        } catch (const std::exception& e) {
          written = util::Status::Internal(e.what());
        }
        if (!written.ok()) {
          board->Fail(written.status());
          continue;
        }
        ++barriers->published;
        if (collect) {
          ++writer_stage.chunks;
          writer_stage.bytes_in += written.value();
          writer_stage.chunk_ns.Record(obs::NowNs() - t0);
        }
      }
    });
  }

  // Shard consumers: single reader per shard, so Shard needs no locks.
  std::vector<std::thread> shard_threads;
  shard_threads.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shard_threads.emplace_back([&, i] {
      obs::RunTelemetry* rt =
          collect ? &telem[1 + static_cast<size_t>(threads_) + i] : nullptr;
      obs::TraceRing* ring =
          tracing ? &rings[1 + static_cast<size_t>(threads_) + i] : nullptr;
      // Shard-local dedup/analysis counters (items, malformed, unique)
      // land in this worker's registry slot via the ingestor hook.
      if (rt) shards[i]->set_telemetry(rt);
      const uint64_t tb0 = rt ? obs::ThreadAllocatedBytes() : 0;
      const uint64_t tc0 = rt ? obs::ThreadAllocationCount() : 0;
      auto consume = [&](const ShardBatch& batch) {
        uint64_t t0 = rt != nullptr ? obs::NowNs() : 0;
        for (const corpus::ParsedLine& entry : batch.entries) {
          shards[i]->Consume(entry);
        }
        if (rt) {
          uint64_t t1 = obs::NowNs();
          obs::StageMetrics& m = rt->stage(obs::kStageShard);
          ++m.chunks;
          m.chunk_ns.Record(t1 - t0);
          if (ring) {
            ring->Record(obs::kStageShard, batch.chunk, t0, t1);
          }
        }
      };
      if (!board) {
        while (std::optional<ShardBatch> batch = shard_queues[i]->Pop()) {
          consume(*batch);
        }
      } else {
        // Every chunk sends this shard exactly one batch, so once
        // `consumed` batches of chunks below `next_w` have arrived the
        // shard holds the uninterrupted run's state after exactly
        // next_w chunks: its part of that barrier. Batches of later
        // chunks wait in `held` in arrival order; a worker's chunk ids
        // only grow, so each worker's batches still reach the shard in
        // the order it pushed them (the parse memo relies on that).
        uint64_t next_w = every, consumed = 0;
        std::vector<ShardBatch> held;
        auto take_due_barriers = [&] {
          while (consumed == next_w &&
                 (max_chunks == 0 || next_w < max_chunks)) {
            const uint64_t t0 = rt != nullptr ? obs::NowNs() : 0;
            ShardCheckpoint part;
            try {
              part = shards[i]->TakeCheckpoint();
            } catch (const std::exception& e) {
              // Delivered empty, so the barrier still completes; the
              // writer skips it and every later one.
              board->Fail(util::Status::Internal(
                  std::string("taking shard checkpoint: ") + e.what()));
            }
            if (rt) {
              const uint64_t t1 = obs::NowNs();
              ++rt->stage(obs::kStageCheckpoint).items_in;
              rt->checkpoint_part_ns.Record(t1 - t0);
              if (ring) ring->Record(obs::kStageCheckpoint, next_w, t0, t1);
            }
            if (std::optional<BarrierCheckpoint> done =
                    board->Deliver(next_w, i, std::move(part))) {
              writer_queue.Push(std::move(*done));
            }
            next_w += every;
            std::vector<ShardBatch> later;
            for (ShardBatch& batch : held) {
              if (batch.chunk < next_w) {
                consume(batch);
                ++consumed;
              } else {
                later.push_back(std::move(batch));
              }
            }
            held.swap(later);
          }
        };
        while (std::optional<ShardBatch> batch = shard_queues[i]->Pop()) {
          if (batch->chunk >= next_w) {
            held.push_back(std::move(*batch));
            continue;
          }
          consume(*batch);
          ++consumed;
          take_due_barriers();
        }
      }
      if (rt) {
        obs::StageMetrics& m = rt->stage(obs::kStageShard);
        m.alloc_bytes += obs::ThreadAllocatedBytes() - tb0;
        m.allocs += obs::ThreadAllocationCount() - tc0;
      }
    });
  }

  // Parse workers: decode + parse + canonicalize in parallel, then
  // route every query entry to the shard owning its hash.
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads_));
  for (int w = 0; w < threads_; ++w) {
    workers.emplace_back([&, w] {
      obs::RunTelemetry* rt =
          collect ? &telem[1 + static_cast<size_t>(w)] : nullptr;
      obs::TraceRing* ring = tracing ? &rings[1 + static_cast<size_t>(w)] : nullptr;
      if (rt) rt->shard_queries.resize(num_shards, 0);
      const uint64_t tb0 = rt ? obs::ThreadAllocatedBytes() : 0;
      const uint64_t tc0 = rt ? obs::ThreadAllocationCount() : 0;
      sparql::Parser parser;
      uint64_t local_lines = 0;
      std::vector<Batch> buckets(num_shards);
      // Unique corpus only: a repeat of a line this worker already
      // parsed skips decode, parse and hash. Exact because ParseLogLine
      // is a pure function of the line's bytes and the memo compares
      // them all. Sound without an AST because equal bytes route to the
      // same shard, where this worker's earlier push of the first
      // occurrence (FIFO queue, one consumer) has already put the hash
      // in the shard's seen or abandoned set. The valid corpus analyzes
      // every occurrence, so it never consults the memo.
      const bool use_memo = !options_.use_valid_corpus;
      util::StringInterner memo(kParseMemoBytes);
      char memo_value[kMemoValueBytes];
      while (std::optional<NumberedChunk> chunk = chunk_queue.Pop()) {
        uint64_t t0 = rt != nullptr ? obs::NowNs() : 0;
        local_lines += chunk->data.lines.size();
        for (Batch& b : buckets) b.clear();
        // One scratch per chunk: every line's AST lands on its arena,
        // and the ShardBatch keepalives below return it (reset) to the
        // pool once the last shard finishes with this chunk.
        std::shared_ptr<corpus::ParseScratch> scratch =
            scratch_pool.Acquire();
        bool chunk_ok = true;
        uint64_t memo_hits = 0;
        // Containment scope: a throw anywhere in the chunk's parse loop
        // (bad_alloc included — injected alloc failures are only
        // eligible inside the AllocFaultScope) falls through to the
        // recovery pass below instead of killing the run.
        try {
          obs::AllocFaultScope fault_scope;
          for (std::string_view line : chunk->data.lines) {
            if (options_.parse_fault_hook) options_.parse_fault_hook(line);
            uint64_t line_key = 0;
            if (use_memo) {
              line_key = util::Crc32c(line);
              if (const std::string_view* v = memo.Find(line, line_key)) {
                corpus::ParsedLine hit = UnpackMemoValue(*v);
                buckets[ShardIndexFor(hit, num_shards)].push_back(
                    std::move(hit));
                ++memo_hits;
                continue;
              }
            }
            corpus::ParsedLine parsed =
                corpus::ParseLogLine(parser, line, *scratch);
            if (!parsed.is_query) continue;  // noise: dropped, not routed
            // Inserted at once, not at chunk end, so repeats inside one
            // chunk hit too: the first occurrence sits earlier in the
            // same bucket.
            if (use_memo) {
              memo.Insert(line, line_key, PackMemoValue(parsed, memo_value));
            }
            buckets[ShardIndexFor(parsed, num_shards)].push_back(
                std::move(parsed));
          }
        } catch (...) {
          chunk_ok = false;
        }
        if (!chunk_ok) {
          // Recovery: the fast pass left arena-backed entries behind, so
          // drop them (before the scratch — their Query destructors touch
          // its arena) and reprocess every line on the heap path with a
          // per-line guard. Lines that still throw are quarantined: they
          // count toward Total in the quarantined bucket and are sampled
          // for offline reproduction. One-shot faults (an injected or
          // transient bad_alloc) parse cleanly here and lose nothing.
          //
          // The memo is emptied first: the discarded pass may have
          // memoized a line whose recovery parse is then quarantined, so
          // a later hit would reach its shard with no first occurrence
          // delivered (the same holds for an Insert that threw halfway).
          // The recovery pass neither reads nor writes the memo.
          for (Batch& b : buckets) b.clear();
          scratch.reset();
          memo.Clear();
          memo_hits = 0;
          for (size_t j = 0; j < chunk->data.lines.size(); ++j) {
            std::string_view line = chunk->data.lines[j];
            corpus::ParsedLine parsed;
            try {
              if (options_.parse_fault_hook) options_.parse_fault_hook(line);
              std::string decode_buf;
              parsed = corpus::ParseLogLine(parser, line, decode_buf);
            } catch (const std::exception& e) {
              parsed = corpus::ParsedLine();
              parsed.is_query = true;
              parsed.quarantined = true;
              parsed.line_hash = corpus::HashBytes(line);
              quarantine.Record(chunk->id, j, line, e.what());
            } catch (...) {
              parsed = corpus::ParsedLine();
              parsed.is_query = true;
              parsed.quarantined = true;
              parsed.line_hash = corpus::HashBytes(line);
              quarantine.Record(chunk->id, j, line, "unknown exception");
            }
            if (!parsed.is_query) continue;
            buckets[ShardIndexFor(parsed, num_shards)].push_back(
                std::move(parsed));
          }
        }
        if (rt) {
          uint64_t routed = 0, malformed = 0;
          for (size_t i = 0; i < num_shards; ++i) {
            routed += buckets[i].size();
            rt->shard_queries[i] += buckets[i].size();
            for (const corpus::ParsedLine& e : buckets[i]) {
              if (!e.valid && !e.quarantined) ++malformed;
            }
          }
          uint64_t t1 = obs::NowNs();
          obs::StageMetrics& m = rt->stage(obs::kStageParse);
          ++m.chunks;
          m.items_in += chunk->data.lines.size();
          m.bytes_in += chunk->data.bytes;
          m.items_out += routed;
          m.malformed += malformed;
          m.chunk_ns.Record(t1 - t0);
          rt->parse_memo_hits += memo_hits;
          if (ring) ring->Record(obs::kStageParse, chunk->id, t0, t1);
        }
        for (size_t i = 0; i < num_shards; ++i) {
          if (buckets[i].empty()) {
            // Journaled runs count chunks per shard, so an empty batch
            // still goes out, but it pins no scratch.
            if (board) shard_queues[i]->Push(ShardBatch{chunk->id, {}, {}});
            continue;
          }
          shard_queues[i]->Push(
              ShardBatch{chunk->id, scratch, std::move(buckets[i])});
          buckets[i] = Batch();
        }
      }
      if (rt) {
        obs::StageMetrics& m = rt->stage(obs::kStageParse);
        m.alloc_bytes += obs::ThreadAllocatedBytes() - tb0;
        m.allocs += obs::ThreadAllocationCount() - tc0;
      }
      lines_consumed.fetch_add(local_lines, std::memory_order_relaxed);
    });
  }

  // Reader (this thread): stream chunks in; Push blocks when the
  // parsers fall behind, bounding memory.
  util::Status source_status;
  {
    obs::RunTelemetry* rt = collect ? &telem[0] : nullptr;
    obs::TraceRing* ring = tracing ? &rings[0] : nullptr;
    const uint64_t tb0 = rt ? obs::ThreadAllocatedBytes() : 0;
    const uint64_t tc0 = rt ? obs::ThreadAllocationCount() : 0;
    NumberedChunk chunk;
    uint64_t next_id = 0;
    uint64_t lines_read = 0;
    int transient_retries = 0;
    for (;;) {
      if (max_chunks > 0 && next_id >= max_chunks) break;
      if (board && !board->AwaitRoom(next_id)) break;
      uint64_t t0 = rt != nullptr ? obs::NowNs() : 0;
      bool more;
      // Transient source errors (short read, EINTR, injected faults)
      // retry a bounded number of times; persistent errors stop the
      // input early, with the failure surfaced as source_status and
      // every line read so far still fully accounted.
      try {
        more = source.NextChunk(chunk_size, chunk.data);
        transient_retries = 0;
      } catch (const TransientChunkError& e) {
        if (++transient_retries <= kMaxTransientRetries) continue;
        source_status = util::Status::Internal(
            std::string("chunk source failed after ") +
            std::to_string(kMaxTransientRetries) + " retries: " + e.what());
        break;
      } catch (const std::exception& e) {
        source_status = util::Status::Internal(
            std::string("chunk source error: ") + e.what());
        break;
      }
      if (rt && more) {
        uint64_t t1 = obs::NowNs();
        obs::StageMetrics& m = rt->stage(obs::kStageReader);
        ++m.chunks;
        m.items_in += chunk.data.lines.size();
        m.items_out += chunk.data.lines.size();
        m.bytes_in += chunk.data.bytes;
        m.chunk_ns.Record(t1 - t0);
        if (ring) ring->Record(obs::kStageReader, next_id, t0, t1);
      }
      if (!more) {
        if (barriers) barriers->exhausted = true;
        break;
      }
      chunk.id = next_id++;
      lines_read += chunk.data.lines.size();
      if (board && next_id % every == 0 &&
          (max_chunks == 0 || next_id < max_chunks)) {
        board->Record(next_id, source.offset(), lines_read);
      }
      chunk_queue.Push(std::move(chunk));
      chunk = NumberedChunk();
    }
    if (rt) {
      obs::StageMetrics& m = rt->stage(obs::kStageReader);
      m.alloc_bytes += obs::ThreadAllocatedBytes() - tb0;
      m.allocs += obs::ThreadAllocationCount() - tc0;
    }
  }
  chunk_queue.Close();
  for (std::thread& t : workers) t.join();
  for (auto& q : shard_queues) q->Close();
  for (std::thread& t : shard_threads) t.join();
  writer_queue.Close();
  if (writer.joinable()) {
    writer.join();
    barriers->error = board->error();
  }

  PipelineResult result = MergeShards(shards);
  result.lines = lines_consumed.load(std::memory_order_relaxed);
  result.quarantine = quarantine.Take();
  result.source_status = std::move(source_status);

  if (collect) {
    obs::RunTelemetry merged;
    merged.shard_queries.resize(num_shards, 0);
    for (const obs::RunTelemetry& t : telem) merged.Merge(t);
    merged.chunk_queue = chunk_queue.Stats();
    for (const auto& q : shard_queues) merged.shard_queues.Merge(q->Stats());
    merged.stage(obs::kStageCheckpoint).Merge(writer_stage);
    merged.wall_ns = obs::NowNs() - run_start;
    merged.workers = telem_count;
    merged.run_alloc_bytes = obs::AllocatedBytes() - alloc_bytes0;
    merged.run_allocs = obs::AllocationCount() - alloc_count0;
    result.telemetry = std::move(merged);
    if (tracing) {
      obs::TraceData trace;
      trace.origin_ns = run_start;
      trace.wall_ns = result.telemetry->wall_ns;
      trace.tracks.reserve(telem_count);
      for (size_t i = 0; i < telem_count; ++i) {
        obs::TraceTrack track;
        if (i == 0) {
          track.name = "reader";
        } else if (i <= static_cast<size_t>(threads_)) {
          track.name = "parse-" + std::to_string(i - 1);
        } else {
          track.name =
              "shard-" + std::to_string(i - 1 - static_cast<size_t>(threads_));
        }
        track.events = rings[i].Drain();
        track.dropped = rings[i].dropped();
        trace.tracks.push_back(std::move(track));
      }
      result.trace = std::move(trace);
    }
  }
  return result;
}

PipelineResult ParallelLogPipeline::Run(const std::vector<std::string>& lines) {
  VectorChunkSource source(lines);
  return Run(static_cast<ChunkSource&>(source));
}

}  // namespace sparqlog::pipeline
