// Structured span tracing with per-thread lock-free ring buffers.
//
// Design (DESIGN.md §7d):
//   - Always compiled, off by default. `FM_TRACE_SPAN(cat, name)` costs one
//     relaxed atomic load when tracing is disabled; no allocation, no locking,
//     no clock read.
//   - When enabled, each thread records into its own fixed-capacity ring
//     buffer (registered lazily on first span, one mutex acquisition per
//     thread lifetime). The hot path is a monotonic-clock read plus a plain
//     array store; on overflow the ring drops the oldest event and counts it —
//     tracing can never block or slow the pipeline by more than the ring.
//   - Export writes Chrome trace-event / Perfetto-compatible JSON ("X"
//     complete events with pid/tid, "M" thread-name metadata) that loads
//     directly in ui.perfetto.dev or chrome://tracing. Export must only run
//     while no spans are being recorded (after the run's barriers / joins);
//     the live-readable parts (event and dropped counts) are relaxed atomics.
#ifndef SRC_UTIL_TRACE_H_
#define SRC_UTIL_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/util/sync.h"

namespace fm {

// One recorded span. Category/name/arg keys must be string literals (or
// otherwise outlive the tracer); events store the pointers, not copies.
struct TraceEvent {
  static constexpr uint32_t kMaxArgs = 3;
  const char* category = nullptr;
  const char* name = nullptr;
  uint64_t start_ns = 0;  // steady-clock ns (absolute; exporter rebases)
  uint64_t dur_ns = 0;
  uint32_t num_args = 0;
  const char* arg_names[kMaxArgs] = {nullptr, nullptr, nullptr};
  uint64_t arg_values[kMaxArgs] = {0, 0, 0};
};

// Per-thread fixed-capacity ring. Single writer (the owning thread); the
// counters are relaxed atomics so the heartbeat can read totals live. Event
// payloads are only read at export time, after writers have quiesced.
class TraceRingBuffer {
 public:
  TraceRingBuffer(uint32_t tid, std::string thread_name, size_t capacity);

  void Push(const TraceEvent& event) {
    // relaxed: head_ is single-writer (the owning thread); concurrent readers
    // only consume the counter value, and event payloads are read post-quiesce.
    uint64_t h = head_.load(std::memory_order_relaxed);
    events_[h % events_.size()] = event;
    // relaxed: same single-writer counter as the load above; the export path
    // runs after writers quiesce.
    head_.store(h + 1, std::memory_order_relaxed);
  }

  // Total events ever pushed / dropped (ring overwrote them before export).
  // relaxed: live heartbeat reads tolerate a stale count.
  uint64_t pushed() const { return head_.load(std::memory_order_relaxed); }
  uint64_t dropped() const {
    uint64_t h = pushed();
    return h > events_.size() ? h - events_.size() : 0;
  }
  size_t capacity() const { return events_.size(); }
  uint32_t tid() const { return tid_; }
  const std::string& thread_name() const { return thread_name_; }
  void set_thread_name(std::string name) { thread_name_ = std::move(name); }

  // Visits surviving events oldest-first. Caller must ensure the owning
  // thread is not concurrently pushing (post-run export contract).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    // relaxed: export-only path; the owning thread has quiesced by contract.
    uint64_t h = head_.load(std::memory_order_relaxed);
    uint64_t begin = h > events_.size() ? h - events_.size() : 0;
    for (uint64_t i = begin; i < h; ++i) {
      fn(events_[i % events_.size()]);
    }
  }

 private:
  std::vector<TraceEvent> events_;
  std::atomic<uint64_t> head_{0};
  uint32_t tid_;
  std::string thread_name_;
};

class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 1u << 16;  // events per thread

  static Tracer& Get();

  // Starts recording. Threads register their ring (of `events_per_thread`
  // capacity) lazily on their first span. Idempotent; capacity applies to
  // rings created after the call.
  void Enable(size_t events_per_thread = kDefaultCapacity);

  // Stops recording new spans. Buffers are retained for export.
  void Disable();

  // Drops all buffers and thread registrations and disables recording. Only
  // safe when no span is alive anywhere (tests; between runs).
  void Reset();

  static bool enabled() {
    // relaxed: a stale read only delays span capture by one event; ring
    // registration (the racy part) re-checks under the registry mutex.
    return enabled_flag_.load(std::memory_order_relaxed);
  }

  // The calling thread's ring, registering it if needed. nullptr if disabled.
  TraceRingBuffer* CurrentBuffer();

  // Names the calling thread in exported traces. Effective retroactively if
  // the thread already has a ring, and remembered for rings created later
  // (ThreadPool workers name themselves at startup, usually before Enable).
  static void SetThisThreadName(const std::string& name);

  // Live totals across all registered rings (relaxed reads; safe concurrent
  // with writers).
  uint64_t TotalEvents() const;
  uint64_t TotalDropped() const;

  // Chrome trace-event JSON: {"traceEvents":[...M+X events...],
  // "displayTimeUnit":"ns", "otherData":{...}}. ts/dur are microseconds
  // rebased so the earliest event starts at 0. Writers must be quiescent.
  std::string ExportJson() const;
  bool WriteJson(const std::string& path) const;

 private:
  Tracer() = default;

  // Surviving (exportable) event count.
  uint64_t TotalEventsLocked() const FM_REQUIRES(mutex_);

  friend class TraceSpan;

  static std::atomic<bool> enabled_flag_;

  // mutex_ protects the ring registry: the buffer list, the capacity applied
  // to newly registered rings, and retroactive thread renames. Ring *contents*
  // are single-writer and not guarded (see TraceRingBuffer).
  mutable Mutex mutex_;
  std::vector<std::unique_ptr<TraceRingBuffer>> buffers_ FM_GUARDED_BY(mutex_);
  size_t capacity_ FM_GUARDED_BY(mutex_) = kDefaultCapacity;
  // Bumped by Reset so threads drop their cached ring pointer.
  std::atomic<uint64_t> epoch_{1};
};

// Steady-clock nanoseconds (the one sanctioned raw-clock site besides
// Timer/perf_counters; see the fmlint raw-clock rule).
uint64_t TraceNowNs();

// RAII span: records a complete event covering its lifetime on the calling
// thread's ring. When tracing is disabled, construction is a relaxed load and
// destruction a null check.
class TraceSpan {
 public:
  TraceSpan(const char* category, const char* name) {
    if (Tracer::enabled()) {
      Init(category, name);
    }
  }
  ~TraceSpan() {
    if (buf_ != nullptr) {
      Finish();
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  // Attaches a numeric arg (up to TraceEvent::kMaxArgs; extras are ignored).
  // `key` must be a string literal.
  void Arg(const char* key, uint64_t value) {
    if (buf_ != nullptr && num_args_ < TraceEvent::kMaxArgs) {
      arg_names_[num_args_] = key;
      arg_values_[num_args_] = value;
      ++num_args_;
    }
  }

 private:
  void Init(const char* category, const char* name);
  void Finish();

  TraceRingBuffer* buf_ = nullptr;
  const char* category_ = nullptr;
  const char* name_ = nullptr;
  uint64_t start_ns_ = 0;
  uint32_t num_args_ = 0;
  const char* arg_names_[TraceEvent::kMaxArgs] = {nullptr, nullptr, nullptr};
  uint64_t arg_values_[TraceEvent::kMaxArgs] = {0, 0, 0};
};

#define FM_TRACE_CONCAT2(a, b) a##b
#define FM_TRACE_CONCAT(a, b) FM_TRACE_CONCAT2(a, b)
// Anonymous scope span; use a named `TraceSpan span(...)` when attaching args.
#define FM_TRACE_SPAN(category, name) \
  ::fm::TraceSpan FM_TRACE_CONCAT(fm_trace_span_, __LINE__)(category, name)

}  // namespace fm

#endif  // SRC_UTIL_TRACE_H_
