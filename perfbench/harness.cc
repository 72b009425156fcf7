// One measured run of one benchmark workload, in a fresh process, composed
// the way campaign_cli and dnn_cli compose a sweep at their defaults:
// spec → plan → RunSweep / RunNetworkSweep with the CLI's resilience policy
// (quarantine, 2 retries), an atomic CSV file, a live JSONL stream and, for
// operator sweeps, the CLI's in-memory collector, summaries and result
// cache. perfbench/run.py launches it once per measurement and turns its
// report into the benchmark's metrics.
//
//   saffire_bench --workload table1 --dir WORK [--engine E] [--trace]
//                 [--setup-only]
//
// --workload  table1 | network-cycle | network-appfi. The table1-warm
//             workload is table1 run in a WORK whose result cache an
//             earlier process filled.
// --dir       working directory; receives records.csv, records.jsonl and
//             (operator sweeps) the result-cache/ directory.
// --engine    operator engine (predicted); used to confirm the record
//             digests against the reference engine.
// --trace     record layer spans (meaningful in saffire_bench_traced).
// --setup-only  exit as soon as the first record is delivered; the report
//             then holds only t_main_ns and t_first_record_ns. It gives
//             run.py more set-up samples than full sweeps can.
//
// The last line of stdout is one JSON object: CLOCK_MONOTONIC timestamps of
// main() entry, the first delivered record and the closed sinks, the
// sweep's outcome counts, the registry counters, and (with --trace) the
// per-layer span statistics.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_file.h"
#include "common/json.h"
#include "fi/workload.h"
#include "obs/metrics.h"
#include "patterns/report.h"
#include "service/network_run.h"
#include "service/result_cache.h"
#include "service/run.h"
#include "service/sink.h"
#include "systolic/simd_ops.h"
#include "trace.h"

namespace {

using namespace saffire;
using perfbench::Layer;
using perfbench::MonotonicSeconds;
using perfbench::Span;

// JsonWriter rounds doubles to six digits; times go out as integer
// nanoseconds instead.
std::int64_t Nanos(double seconds) {
  return static_cast<std::int64_t>(seconds * 1e9);
}

// Timestamps the sink boundary: the first delivered record, and each
// campaign's OnCampaignBegin→OnCampaignEnd interval. Under --trace every
// callback into the wrapped sink is a kSink span. The executor serializes
// sink callbacks, so no locking is needed.
struct Observation {
  double t_main = 0.0;
  bool setup_only = false;  // exit at the first record (--setup-only)
  std::int64_t planned_experiments = 0;
  double first_record = 0.0;
  double critical_campaign = 0.0;
  double campaign_begin = 0.0;

  void Record() {
    if (first_record != 0.0) return;
    first_record = MonotonicSeconds();
    if (setup_only) {
      std::cout << "{\"t_main_ns\": " << Nanos(t_main)
                << ", \"t_first_record_ns\": " << Nanos(first_record) << "}"
                << std::endl;
      std::_Exit(0);
    }
  }
  void CampaignBegin() { campaign_begin = MonotonicSeconds(); }
  void CampaignEnd() {
    critical_campaign =
        std::max(critical_campaign, MonotonicSeconds() - campaign_begin);
  }
};

class ObservedSink : public RecordSink {
 public:
  ObservedSink(RecordSink& inner, Observation& seen)
      : inner_(inner), seen_(seen) {}

  void OnSweepBegin(const CampaignPlan& plan) override {
    seen_.planned_experiments = plan.total_experiments();
    const Span span(Layer::kSink);
    inner_.OnSweepBegin(plan);
  }
  void OnCampaignBegin(const CampaignBeginInfo& info) override {
    seen_.CampaignBegin();
    const Span span(Layer::kSink);
    inner_.OnCampaignBegin(info);
  }
  void OnRecord(const CampaignBeginInfo& info, std::int64_t index,
                const ExperimentRecord& record) override {
    {
      const Span span(Layer::kSink);
      inner_.OnRecord(info, index, record);
    }
    seen_.Record();
  }
  void OnExperimentFailed(const CampaignBeginInfo& info,
                          const FailedRecord& failure) override {
    const Span span(Layer::kSink);
    inner_.OnExperimentFailed(info, failure);
  }
  void OnCampaignEnd(const CampaignBeginInfo& info) override {
    {
      const Span span(Layer::kSink);
      inner_.OnCampaignEnd(info);
    }
    seen_.CampaignEnd();
  }
  void OnSweepEnd() override {
    const Span span(Layer::kSink);
    inner_.OnSweepEnd();
  }

 private:
  RecordSink& inner_;
  Observation& seen_;
};

class ObservedNetworkSink : public NetworkRecordSink {
 public:
  ObservedNetworkSink(NetworkRecordSink& inner, Observation& seen)
      : inner_(inner), seen_(seen) {}

  void OnSweepBegin(const NetworkSweepSpec& spec,
                    const NetworkCampaignPlan& plan) override {
    perfbench::MarkSweepBegun();
    seen_.planned_experiments = plan.total_experiments();
    const Span span(Layer::kSink);
    inner_.OnSweepBegin(spec, plan);
  }
  void OnCampaignBegin(const NetworkCampaignInfo& info) override {
    seen_.CampaignBegin();
    const Span span(Layer::kSink);
    inner_.OnCampaignBegin(info);
  }
  void OnRecord(const NetworkRecord& record) override {
    {
      const Span span(Layer::kSink);
      inner_.OnRecord(record);
    }
    seen_.Record();
  }
  void OnExperimentFailed(const NetworkFailedRecord& failed) override {
    const Span span(Layer::kSink);
    inner_.OnExperimentFailed(failed);
  }
  void OnCampaignEnd(std::size_t campaign_index) override {
    {
      const Span span(Layer::kSink);
      inner_.OnCampaignEnd(campaign_index);
    }
    seen_.CampaignEnd();
  }
  void OnSweepEnd(const SweepOutcome& outcome) override {
    const Span span(Layer::kSink);
    inner_.OnSweepEnd(outcome);
  }

 private:
  NetworkRecordSink& inner_;
  Observation& seen_;
};

// What one run reports besides its timestamps.
struct RunCounts {
  SweepOutcome outcome;
  std::map<std::string, std::int64_t> executor;
  int workers = 1;
  std::int64_t dram_bytes = 0;  // the AccelConfig the sweep ran on
  double sweep_seconds = 0.0;  // RunSweep / RunNetworkSweep call
};

// The paper's Table I rows, each swept on the paper's signal (adder_out
// bit 8) and on a wide-cone forwarding signal (act_forward bit 3):
// exhaustive 256-site SA1 campaigns, signal-major.
std::vector<SweepSpec> Table1Specs(CampaignEngine engine) {
  struct Row {
    WorkloadSpec workload;
    std::vector<Dataflow> dataflows;
  };
  const std::vector<Row> rows = {
      {Gemm16x16(), {Dataflow::kWeightStationary, Dataflow::kOutputStationary}},
      {Conv16Kernel3x3x3x3(), {Dataflow::kWeightStationary}},
      {Conv16Kernel3x3x3x8(), {Dataflow::kWeightStationary}},
      {Gemm112x112(),
       {Dataflow::kWeightStationary, Dataflow::kOutputStationary}},
      {Conv112Kernel3x3x3x8(), {Dataflow::kWeightStationary}},
  };
  const std::vector<std::pair<MacSignal, int>> signals = {
      {MacSignal::kAdderOut, 8}, {MacSignal::kActForward, 3}};
  std::vector<SweepSpec> specs;
  for (const auto& [signal, bit] : signals) {
    for (const Row& row : rows) {
      SweepSpec spec;
      spec.workloads = {row.workload};
      spec.dataflows = row.dataflows;
      spec.signals = {signal};
      spec.bits = {bit};
      spec.engine = engine;
      specs.push_back(spec);
    }
  }
  return specs;
}

// Executor workers for operator sweeps: every CPU, up to 4.
int Table1Workers() {
  const unsigned cpus = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(cpus, 1u, 4u));
}

RunCounts RunTable1(const std::string& dir, CampaignEngine engine,
                    Observation& seen) {
  const int workers = Table1Workers();
  const std::vector<SweepSpec> specs = Table1Specs(engine);
  for (const SweepSpec& spec : specs) spec.Validate();
  const CampaignPlan plan = BuildCampaignPlan(specs);

  CollectorSink collector;
  AtomicFileWriter csv_writer(dir + "/records.csv");
  CsvRecordSink csv_sink(csv_writer.stream());
  std::ofstream jsonl_out(dir + "/records.jsonl");
  if (!jsonl_out) throw std::runtime_error("cannot open records.jsonl");
  JsonlRecordSink jsonl_sink(jsonl_out);
  TeeSink outputs({&csv_sink, &jsonl_sink});
  ObservedSink observed(outputs, seen);
  TeeSink tee({&collector, &observed});

  RunOptions options;
  options.max_parallelism = workers;
  options.resilience.max_retries = 2;
  options.resilience.on_failure = OnFailure::kQuarantine;
  ResultCache cache(dir + "/result-cache");
  options.result_cache = &cache;

  CampaignExecutor& executor = CampaignExecutor::Shared();
  const ExecutorStats before = executor.stats();
  RunCounts counts;
  const double start = MonotonicSeconds();
  counts.outcome = RunSweep(plan, options, tee);
  counts.sweep_seconds = MonotonicSeconds() - start;
  csv_writer.Commit();
  jsonl_out.close();

  // The CLI renders every campaign's summary before it exits.
  std::ostringstream summaries;
  for (const CampaignResult& result : collector.TakeResults()) {
    summaries << RenderCampaignSummary(result);
  }

  const ExecutorStats after = executor.stats();
  counts.workers = workers;
  counts.dram_bytes = static_cast<std::int64_t>(specs.front().accel.dram_bytes);
  counts.executor = {
      {"experiments_run", after.experiments_run - before.experiments_run},
      {"chunks", after.chunks_executed - before.chunks_executed},
      {"simulators_constructed",
       after.simulators_constructed - before.simulators_constructed},
      {"lanes_filled", after.lanes_filled - before.lanes_filled},
      {"batches_run", after.batches_run - before.batches_run},
      {"pool_threads", after.pool_threads},
  };
  return counts;
}

// dnn_cli at its defaults (--network mlp: hidden 32, batch 32, 600 samples
// / 80 epochs, net-seed 7; 16x16 array, WS, adder_out bit 8 SA1, auto
// perturbation) with the workload's own overrides.
NetworkSweepSpec NetworkDefaults() {
  NetworkSweepSpec spec;
  spec.accel.array.rows = 16;
  spec.accel.array.cols = 16;
  spec.network.kind = NetworkKind::kMlp;
  spec.network.batch = 32;
  spec.network.hidden = 32;
  spec.network.train_samples = 600;
  spec.network.train_epochs = 80;
  spec.network.conv_channels = 4;
  spec.network.extraction_k = 16;
  spec.network.extraction_n = 16;
  spec.network.seed = 7;
  spec.seed = 1;
  spec.perturb_auto = true;
  spec.perturb.bit = 8;
  spec.perturb.delta = 0;
  return spec;
}

RunCounts RunNetwork(const std::string& workload, const std::string& dir,
                     Observation& seen) {
  NetworkSweepSpec spec = NetworkDefaults();
  if (workload == "network-cycle") {
    // --rung cycle-accurate --layer -1,1 --sites 32
    spec.rung = NetworkRung::kCycleAccurate;
    spec.layers = {-1, 1};
    spec.max_sites = 32;
  } else {
    // --abft --mitigation none,column_remap,prune_channel,abft_correct
    spec.rung = NetworkRung::kAppFi;
    spec.abft = true;
    spec.mitigations = {MitigationPolicy::kNone, MitigationPolicy::kColumnRemap,
                        MitigationPolicy::kPruneChannel,
                        MitigationPolicy::kAbftCorrect};
  }
  spec.Validate();

  AtomicFileWriter csv_writer(dir + "/records.csv");
  NetworkCsvSink csv_sink(csv_writer.stream());
  std::ofstream jsonl_out(dir + "/records.jsonl");
  if (!jsonl_out) throw std::runtime_error("cannot open records.jsonl");
  NetworkJsonlSink jsonl_sink(jsonl_out, /*flush_every_line=*/true);
  NetworkTeeSink outputs({&csv_sink, &jsonl_sink});
  ObservedNetworkSink observed(outputs, seen);

  NetworkRunOptions options;
  options.resilience.max_retries = 2;
  options.resilience.on_failure = OnFailure::kQuarantine;

  RunCounts counts;
  counts.dram_bytes = static_cast<std::int64_t>(spec.accel.dram_bytes);
  const double start = MonotonicSeconds();
  counts.outcome = RunNetworkSweep(spec, options, observed);
  counts.sweep_seconds = MonotonicSeconds() - start;
  csv_writer.Commit();
  jsonl_out.close();
  return counts;
}

std::map<std::string, std::int64_t> RegistryCounters() {
  std::map<std::string, std::int64_t> totals;
  for (const obs::CounterSnapshot& counter :
       obs::MetricsRegistry::Default().Snapshot().counters) {
    totals[counter.name] += counter.value;
  }
  return totals;
}

std::string CompilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void WriteReport(std::ostream& out, double t_main, double t_done,
                 const Observation& seen, const RunCounts& counts,
                 bool traced) {
  JsonWriter w(out);
  w.BeginObject();
  w.Key("t_main_ns").Int(Nanos(t_main));
  w.Key("t_first_record_ns").Int(Nanos(seen.first_record));
  w.Key("t_done_ns").Int(Nanos(t_done));
  w.Key("sweep_ns").Int(Nanos(counts.sweep_seconds));
  w.Key("critical_campaign_ns").Int(Nanos(seen.critical_campaign));
  w.Key("experiments").Int(seen.planned_experiments);
  w.Key("records").Int(counts.outcome.records);
  w.Key("quarantined").Int(counts.outcome.quarantined);
  w.Key("stopped").Bool(counts.outcome.stopped);
  w.Key("selfcheck_mismatches").Int(counts.outcome.selfcheck_mismatches);
  w.Key("fallbacks").Int(counts.outcome.fallbacks);
  w.Key("cache_hits").Int(counts.outcome.cache_hits);
  w.Key("cache_stores").Int(counts.outcome.cache_stores);
  w.Key("workers").Int(counts.workers);
  w.Key("dram_bytes").Int(counts.dram_bytes);
  w.Key("simd").String(UseAvx2() ? "avx2" : "scalar");
  w.Key("build_type").String(PERFBENCH_BUILD_TYPE);
  w.Key("compiler").String(CompilerName());
  w.Key("executor").BeginObject();
  for (const auto& [name, value] : counts.executor) w.Key(name).Int(value);
  w.EndObject();
  w.Key("counters").BeginObject();
  for (const auto& [name, value] : RegistryCounters()) w.Key(name).Int(value);
  w.EndObject();
  if (traced) {
    const perfbench::TraceReport trace = perfbench::CollectTrace();
    w.Key("trace").BeginObject();
    w.Key("self_ns").Int(Nanos(trace.self_seconds));
    w.Key("delivery_ns").Int(Nanos(trace.delivery_seconds));
    w.Key("wait_ns").Int(Nanos(trace.wait_seconds));
    w.Key("abft_detected").Int(perfbench::AbftDetected());
    w.Key("layers").BeginObject();
    for (const auto& [label, stats] : trace.layers) {
      w.Key(label).BeginObject();
      w.Key("count").Int(stats.count);
      w.Key("total_ns").Int(Nanos(stats.total));
      w.Key("p50_ns").Int(Nanos(stats.p50));
      w.Key("tail_ns").Int(Nanos(stats.tail));
      w.Key("tail_pct").Double(stats.tail_pct);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndObject();
  out << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const double t_main = MonotonicSeconds();
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--trace" || key == "--setup-only") {
      flags[key.substr(2)] = "1";
    } else if (key.rfind("--", 0) == 0 && i + 1 < argc) {
      flags[key.substr(2)] = argv[++i];
    } else {
      std::cerr << "bad argument '" << key << "'\n";
      return 1;
    }
  }
  const auto flag = [&](const std::string& key, const std::string& fallback) {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  };
  const std::string workload = flag("workload", "");
  const std::string dir = flag("dir", "");
  if (dir.empty()) {
    std::cerr << "--dir is required\n";
    return 1;
  }
  const bool traced = flags.count("trace") != 0;
  if (traced) perfbench::EnableTracing();

  try {
    RequestedSimdMode();  // resolve SAFFIRE_SIMD up front, like the CLI
    Observation seen;
    seen.t_main = t_main;
    seen.setup_only = flags.count("setup-only") != 0;
    RunCounts counts;
    if (workload == "table1") {
      counts = RunTable1(
          dir, CampaignEngineFromString(flag("engine", "predicted")), seen);
    } else if (workload == "network-cycle" || workload == "network-appfi") {
      counts = RunNetwork(workload, dir, seen);
    } else {
      std::cerr << "unknown --workload '" << workload << "'\n";
      return 1;
    }
    const double t_done = MonotonicSeconds();
    WriteReport(std::cout, t_main, t_done, seen, counts, traced);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
