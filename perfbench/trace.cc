#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <ctime>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

struct Event {
  Layer layer = Layer::kCount;
  int index = -1;
  bool golden = false;
  bool top_level = false;
  double seconds = 0.0;
  double self_seconds = 0.0;
};

// One per thread that ever closed a span; owned by the registry so the
// events outlive the thread.
struct ThreadBuffer {
  std::mutex mutex;
  std::vector<Event> events;
  bool main_thread = false;
};

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_sweep_begun{false};
std::atomic<std::int64_t> g_abft_detected{0};
std::thread::id g_main_thread;

std::mutex g_registry_mutex;
std::vector<std::shared_ptr<ThreadBuffer>> g_registry;

thread_local Span* t_current = nullptr;
thread_local std::shared_ptr<ThreadBuffer> t_buffer;

ThreadBuffer& LocalBuffer() {
  if (t_buffer == nullptr) {
    t_buffer = std::make_shared<ThreadBuffer>();
    t_buffer->main_thread = std::this_thread::get_id() == g_main_thread;
    const std::lock_guard<std::mutex> lock(g_registry_mutex);
    g_registry.push_back(t_buffer);
  }
  return *t_buffer;
}

const char* Stem(Layer layer) {
  switch (layer) {
    case Layer::kPlan: return "service.plan_s";
    case Layer::kSink: return "service.sink_s";
    case Layer::kCacheLoad: return "service.result_cache.load_s";
    case Layer::kCacheStore: return "service.result_cache.store_s";
    case Layer::kGolden: return "fi.golden_record_s";
    case Layer::kPrepare: return "patterns.prepare_s";
    case Layer::kGroup: return "patterns.group_s";
    case Layer::kAccelConstruct: return "accel.construct_s";
    case Layer::kAccelGemm: return "accel.gemm_s";
    case Layer::kDnnPrepare: return "dnn.prepare_s";
    case Layer::kDnnRun: return "dnn.inference_s";
    case Layer::kHostGemm: return "dnn.host_gemm_s";
    case Layer::kAppfiInject: return "appfi.inject_s";
    case Layer::kMitigationPlan: return "mitigation.plan_s";
    case Layer::kAbft: return "mitigation.abft_s";
    case Layer::kExecutorWait: return "service.executor.wait_s";
    case Layer::kCount: break;
  }
  return "unknown";
}

std::string Label(const Event& event) {
  if (event.layer == Layer::kDnnRun && event.golden) {
    return "dnn.golden_inference_s";
  }
  std::string label = Stem(event.layer);
  if (event.index >= 0) label += ".layer" + std::to_string(event.index);
  return label;
}

// Nearest-rank percentile of sorted samples.
double Percentile(const std::vector<double>& sorted, double pct) {
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

LayerStats Summarize(std::vector<double> samples) {
  LayerStats stats;
  if (samples.empty()) return stats;
  std::sort(samples.begin(), samples.end());
  stats.count = static_cast<std::int64_t>(samples.size());
  for (const double s : samples) stats.total += s;
  stats.p50 = Percentile(samples, 50.0);
  stats.tail = stats.p50;
  for (const double pct : {90.0, 99.0, 99.9}) {
    const double beyond = static_cast<double>(samples.size()) * (1.0 - pct / 100.0);
    if (beyond < 10.0) break;
    stats.tail = Percentile(samples, pct);
    stats.tail_pct = pct;
  }
  return stats;
}

}  // namespace

void EnableTracing() {
  g_main_thread = std::this_thread::get_id();
  g_enabled.store(true, std::memory_order_release);
}

bool TracingEnabled() { return g_enabled.load(std::memory_order_relaxed); }

void MarkSweepBegun() { g_sweep_begun.store(true, std::memory_order_release); }

double MonotonicSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void NoteAbftDetected() {
  g_abft_detected.fetch_add(1, std::memory_order_relaxed);
}

std::int64_t AbftDetected() {
  return g_abft_detected.load(std::memory_order_relaxed);
}

Span::Span(Layer layer) {
  if (!TracingEnabled()) return;
  active_ = true;
  layer_ = layer;
  parent_ = t_current;
  if ((layer == Layer::kAccelGemm || layer == Layer::kHostGemm) &&
      ParentIs(Layer::kDnnRun)) {
    index_ = parent_->next_child_index_++;
  }
  golden_ = layer == Layer::kDnnRun &&
            !g_sweep_begun.load(std::memory_order_acquire);
  t_current = this;
  start_ = MonotonicSeconds();
}

Span::~Span() {
  if (!active_) return;
  const double seconds = MonotonicSeconds() - start_;
  t_current = parent_;
  if (parent_ != nullptr) parent_->child_seconds_ += seconds;
  Event event;
  event.layer = layer_;
  event.index = index_;
  event.golden = golden_;
  event.top_level = parent_ == nullptr;
  event.seconds = seconds;
  event.self_seconds = seconds - child_seconds_;
  ThreadBuffer& buffer = LocalBuffer();
  const std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.events.push_back(event);
}

bool Span::ParentIs(Layer layer) const {
  return parent_ != nullptr && parent_->layer_ == layer;
}

TraceReport CollectTrace() {
  TraceReport report;
  std::map<std::string, std::vector<double>> samples;
  const std::lock_guard<std::mutex> registry_lock(g_registry_mutex);
  for (const std::shared_ptr<ThreadBuffer>& buffer : g_registry) {
    const std::lock_guard<std::mutex> lock(buffer->mutex);
    for (const Event& event : buffer->events) {
      if (event.layer == Layer::kExecutorWait) {
        if (buffer->main_thread) report.wait_seconds += event.self_seconds;
        continue;
      }
      samples[Label(event)].push_back(event.seconds);
      report.self_seconds += event.self_seconds;
      if (!buffer->main_thread && event.top_level &&
          (event.layer == Layer::kSink || event.layer == Layer::kCacheStore)) {
        report.delivery_seconds += event.seconds;
      }
    }
  }
  for (auto& [label, values] : samples) {
    report.layers[label] = Summarize(std::move(values));
  }
  return report;
}

}  // namespace perfbench
