#include "src/util/trace.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <fstream>

#include "src/util/json.h"

namespace fm {
namespace {

// Pending name for threads that announce themselves before tracing is enabled
// (ThreadPool workers name themselves at startup); applied when the thread
// registers its ring.
thread_local std::string t_pending_name;

struct ThreadSlot {
  TraceRingBuffer* buf = nullptr;
  uint64_t epoch = 0;
};
thread_local ThreadSlot t_slot;

void AppendMicros(std::string* out, uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  *out += buf;
}

}  // namespace

uint64_t TraceNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::atomic<bool> Tracer::enabled_flag_{false};

TraceRingBuffer::TraceRingBuffer(uint32_t tid, std::string thread_name,
                                 size_t capacity)
    : events_(std::max<size_t>(capacity, 1)),
      tid_(tid),
      thread_name_(std::move(thread_name)) {}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Enable(size_t events_per_thread) {
  MutexLock lock(mutex_);
  capacity_ = std::max<size_t>(events_per_thread, 1);
  // relaxed: enabling mid-span is inherently approximate; a thread's first
  // record is ordered by the mutex_ ring-registration handshake.
  enabled_flag_.store(true, std::memory_order_relaxed);
}

void Tracer::Disable() {
  // relaxed: storing false is idempotent, so concurrent Disables are
  // commutative; in-flight spans may still complete their push (see
  // enabled()).
  enabled_flag_.store(false, std::memory_order_relaxed);
}

void Tracer::Reset() {
  MutexLock lock(mutex_);
  // relaxed: Reset requires no live spans by contract, and the flag flip is
  // ordered by the epoch bump below (release), which invalidates cached ring
  // pointers.
  enabled_flag_.store(false, std::memory_order_relaxed);
  buffers_.clear();
  capacity_ = kDefaultCapacity;
  // Invalidate every thread's cached ring pointer.
  epoch_.fetch_add(1, std::memory_order_release);
}

TraceRingBuffer* Tracer::CurrentBuffer() {
  if (!enabled()) {
    return nullptr;
  }
  uint64_t epoch = epoch_.load(std::memory_order_acquire);
  if (t_slot.epoch == epoch) {
    return t_slot.buf;
  }
  MutexLock lock(mutex_);
  uint32_t tid = static_cast<uint32_t>(buffers_.size());
  std::string name = t_pending_name.empty()
                         ? "thread-" + std::to_string(tid)
                         : t_pending_name;
  buffers_.push_back(
      std::make_unique<TraceRingBuffer>(tid, std::move(name), capacity_));
  t_slot.buf = buffers_.back().get();
  t_slot.epoch = epoch;
  return t_slot.buf;
}

void Tracer::SetThisThreadName(const std::string& name) {
  t_pending_name = name;
  Tracer& tracer = Get();
  uint64_t epoch = tracer.epoch_.load(std::memory_order_acquire);
  if (t_slot.epoch == epoch && t_slot.buf != nullptr) {
    MutexLock lock(tracer.mutex_);
    t_slot.buf->set_thread_name(name);
  }
}

uint64_t Tracer::TotalEvents() const {
  MutexLock lock(mutex_);
  uint64_t total = 0;
  for (const auto& buf : buffers_) {
    total += buf->pushed();
  }
  return total;
}

uint64_t Tracer::TotalDropped() const {
  MutexLock lock(mutex_);
  uint64_t total = 0;
  for (const auto& buf : buffers_) {
    total += buf->dropped();
  }
  return total;
}

std::string Tracer::ExportJson() const {
  MutexLock lock(mutex_);
  // Rebase timestamps so the trace starts at ts=0 (Perfetto renders absolute
  // steady-clock epochs far off-screen otherwise).
  uint64_t base_ns = UINT64_MAX;
  for (const auto& buf : buffers_) {
    buf->ForEach([&](const TraceEvent& e) {
      base_ns = std::min(base_ns, e.start_ns);
    });
  }
  if (base_ns == UINT64_MAX) {
    base_ns = 0;
  }

  std::string out;
  out.reserve(1024 + 160 * static_cast<size_t>(TotalEventsLocked()));
  out += "{\"traceEvents\":[\n";
  out += "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"fm\"}}";
  for (const auto& buf : buffers_) {
    out += ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += std::to_string(buf->tid());
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":";
    json::AppendQuoted(&out, buf->thread_name());
    out += "}}";
  }
  uint64_t events = 0;
  uint64_t dropped = 0;
  for (const auto& buf : buffers_) {
    dropped += buf->dropped();
    buf->ForEach([&](const TraceEvent& e) {
      ++events;
      out += ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":";
      out += std::to_string(buf->tid());
      out += ",\"cat\":";
      json::AppendQuoted(&out, e.category != nullptr ? e.category : "");
      out += ",\"name\":";
      json::AppendQuoted(&out, e.name != nullptr ? e.name : "");
      out += ",\"ts\":";
      AppendMicros(&out, e.start_ns - base_ns);
      out += ",\"dur\":";
      AppendMicros(&out, e.dur_ns);
      if (e.num_args > 0) {
        out += ",\"args\":{";
        for (uint32_t i = 0; i < e.num_args; ++i) {
          if (i != 0) {
            out += ',';
          }
          json::AppendQuoted(&out, e.arg_names[i] != nullptr ? e.arg_names[i]
                                                             : "");
          out += ':';
          out += std::to_string(e.arg_values[i]);
        }
        out += '}';
      }
      out += '}';
    });
  }
  out += "\n],\n\"displayTimeUnit\":\"ns\",\n\"otherData\":{";
  out += "\"exported_events\":" + std::to_string(events);
  out += ",\"dropped_events\":" + std::to_string(dropped);
  out += ",\"threads\":" + std::to_string(buffers_.size());
  out += "}}\n";
  return out;
}

uint64_t Tracer::TotalEventsLocked() const {
  uint64_t total = 0;
  for (const auto& buf : buffers_) {
    total += std::min<uint64_t>(buf->pushed(), buf->capacity());
  }
  return total;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << ExportJson();
  return static_cast<bool>(out);
}

void TraceSpan::Init(const char* category, const char* name) {
  buf_ = Tracer::Get().CurrentBuffer();
  if (buf_ == nullptr) {
    return;
  }
  category_ = category;
  name_ = name;
  start_ns_ = TraceNowNs();
}

void TraceSpan::Finish() {
  TraceEvent event;
  event.category = category_;
  event.name = name_;
  event.start_ns = start_ns_;
  event.dur_ns = TraceNowNs() - start_ns_;
  event.num_args = num_args_;
  for (uint32_t i = 0; i < num_args_; ++i) {
    event.arg_names[i] = arg_names_[i];
    event.arg_values[i] = arg_values_[i];
  }
  buf_->Push(event);
}

}  // namespace fm
