// In-memory span recorder for the benchmark's traced run. Spans are opened
// around calls into the library's public functions — by the harness's own
// sink decorators, and in the traced build by the linker-level wrappers in
// layer_trace.cc — never from inside the library. Each span knows its
// parent (the innermost open span on the same thread), so a layer's self
// time is its duration minus the time its child spans cover.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

// The layer boundaries the traced run times. kExecutorWait is the main
// thread blocked inside CampaignExecutor::Run: a wait, not a layer, so it
// is excluded from attributed time.
enum class Layer : std::uint8_t {
  kPlan,            // BuildCampaignPlan / BuildNetworkCampaignPlan
  kSink,            // the harness-wrapped CSV + JSONL sinks
  kCacheLoad,       // ResultCache::Load
  kCacheStore,      // ResultCache::Store
  kGolden,          // GoldenRunCache::GetOrCompute
  kPrepare,         // PrepareCampaign
  kGroup,           // RunPreparedBatch
  kAccelConstruct,  // Accelerator::Accelerator
  kAccelGemm,       // Driver::Gemm, per network layer
  kDnnPrepare,      // PreparedNetwork::PreparedNetwork (incl. training)
  kDnnRun,          // PreparedNetwork::Run (golden or faulty inference)
  kHostGemm,        // GemmRef under PreparedNetwork::Run, per layer
  kAppfiInject,     // NetworkFi::Inject*
  kMitigationPlan,  // PlanLayerMitigation
  kAbft,            // VerifyAndCorrect
  kExecutorWait,    // CampaignExecutor::Run on the calling thread
  kCount,
};

// Tracing is off unless the harness was asked for it; a disabled Span is
// one branch.
void EnableTracing();
bool TracingEnabled();

// Marks the moment the sweep delivered OnSweepBegin: PreparedNetwork::Run
// calls that start before it are the golden inference.
void MarkSweepBegun();

double MonotonicSeconds();

// VerifyAndCorrect calls whose report flagged corruption (traced build).
void NoteAbftDetected();
std::int64_t AbftDetected();

class Span {
 public:
  explicit Span(Layer layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  // True when the enclosing span on this thread is `layer`.
  bool ParentIs(Layer layer) const;

  bool active_ = false;
  Layer layer_ = Layer::kCount;
  int index_ = -1;
  bool golden_ = false;
  int next_child_index_ = 0;
  double start_ = 0.0;
  double child_seconds_ = 0.0;
  Span* parent_ = nullptr;
};

struct LayerStats {
  std::int64_t count = 0;
  double total = 0.0;
  double p50 = 0.0;
  // The highest of p50/p90/p99/p99.9 with at least ten samples beyond it
  // (p50 when there are fewer than twenty samples).
  double tail = 0.0;
  double tail_pct = 50.0;
};

struct TraceReport {
  // Keyed by metric stem, e.g. "patterns.group_s", "accel.gemm_s.layer1".
  std::map<std::string, LayerStats> layers;
  // Σ self time of every layer span (waits excluded).
  double self_seconds = 0.0;
  // Top-level sink and cache-store spans on threads other than the
  // caller's: executor deliveries, which the executor's busy counters do
  // not cover.
  double delivery_seconds = 0.0;
  // Time the calling thread spent blocked in CampaignExecutor::Run, less
  // any sink callbacks the executor ran on it meanwhile.
  double wait_seconds = 0.0;
};

// Merges every thread's spans. Call after all worker activity has ended.
TraceReport CollectTrace();

}  // namespace perfbench
