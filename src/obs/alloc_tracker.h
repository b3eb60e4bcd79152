#ifndef SPARQLOG_OBS_ALLOC_TRACKER_H_
#define SPARQLOG_OBS_ALLOC_TRACKER_H_

// Allocation counters readable from anywhere in the library. The
// counters only move when a binary installs the replacement operator
// new/delete from obs/alloc_hooks.h (perfbench, the fuzz driver,
// parallel_runner and the allocation test do); everywhere else they
// read zero and allocation telemetry is simply absent. The telemetry
// registry reports allocations/stage from these counters, and
// tests/parse_alloc_test.cc gates the parse paths on them.

#include <atomic>
#include <cstdint>

namespace sparqlog::obs {

namespace alloc_internal {
inline std::atomic<uint64_t> g_alloc_bytes{0};
inline std::atomic<uint64_t> g_alloc_count{0};
// Thread-local shadow counters: a worker can attribute allocations to
// its own stage without any cross-thread noise (the global atomics mix
// every thread together).
inline thread_local uint64_t t_alloc_bytes = 0;
inline thread_local uint64_t t_alloc_count = 0;
// Allocation-failure injection (the fault harness, testing/fault_injection).
// g_fail_after < 0 disarms; otherwise the g_fail_after-th eligible
// allocation throws bad_alloc (one-shot). Only allocations made by a
// thread inside an AllocFaultScope are eligible, so the injected
// failure lands in pipeline worker code — never in gtest bookkeeping or
// the containment machinery itself. The hooks check the relaxed atomic
// first: with injection disarmed the fast path is one load.
inline std::atomic<int64_t> g_fail_after{-1};
inline thread_local bool t_fault_scope = false;
}  // namespace alloc_internal

/// True iff this allocation should fail: armed, inside a fault scope,
/// and the countdown just hit zero (one-shot: the decrement disarms).
inline bool ShouldInjectAllocFailure() {
  if (alloc_internal::g_fail_after.load(std::memory_order_relaxed) < 0) {
    return false;
  }
  if (!alloc_internal::t_fault_scope) return false;
  return alloc_internal::g_fail_after.fetch_sub(
             1, std::memory_order_relaxed) == 0;
}

/// Arms the one-shot allocation failure: the `count`-th in-scope
/// allocation from now throws bad_alloc.
inline void ArmAllocFailure(int64_t count) {
  alloc_internal::g_fail_after.store(count, std::memory_order_relaxed);
}

/// Disarms any pending injected failure.
inline void DisarmAllocFailure() {
  alloc_internal::g_fail_after.store(-1, std::memory_order_relaxed);
}

/// Marks the calling thread's allocations as eligible for injected
/// failure while the scope is alive (workers wrap their parse loop).
class AllocFaultScope {
 public:
  AllocFaultScope() : prev_(alloc_internal::t_fault_scope) {
    alloc_internal::t_fault_scope = true;
  }
  ~AllocFaultScope() { alloc_internal::t_fault_scope = prev_; }
  AllocFaultScope(const AllocFaultScope&) = delete;
  AllocFaultScope& operator=(const AllocFaultScope&) = delete;

 private:
  bool prev_;
};

/// Process-wide totals (all threads).
inline uint64_t AllocatedBytes() {
  return alloc_internal::g_alloc_bytes.load(std::memory_order_relaxed);
}
inline uint64_t AllocationCount() {
  return alloc_internal::g_alloc_count.load(std::memory_order_relaxed);
}

/// Calling thread's totals — deltas around a stage give exact per-stage,
/// per-worker attribution with no atomics read anywhere hot.
inline uint64_t ThreadAllocatedBytes() {
  return alloc_internal::t_alloc_bytes;
}
inline uint64_t ThreadAllocationCount() {
  return alloc_internal::t_alloc_count;
}

}  // namespace sparqlog::obs

#endif  // SPARQLOG_OBS_ALLOC_TRACKER_H_
