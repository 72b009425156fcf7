// Linker-level call wrappers for the traced harness. saffire_bench_traced
// is linked with `--wrap=SYMBOL` for each mangled name below (see
// CMakeLists.txt), so every call that crosses into the function from
// another object file lands in __wrap_SYMBOL, which opens a Span and
// forwards to the original definition, __real_SYMBOL. The library itself
// is compiled unchanged.
//
// If a later version of the library renames or re-signs one of these
// functions, its old mangled name has no definition left and the traced
// build fails to link: update the name here rather than let the layer
// silently read zero calls.
#include <optional>
#include <span>
#include <vector>

#include "accel/controller.h"
#include "accel/driver.h"
#include "appfi/appfi.h"
#include "dnn/network.h"
#include "fi/golden_cache.h"
#include "mitigation/abft.h"
#include "mitigation/remap.h"
#include "patterns/campaign.h"
#include "service/executor.h"
#include "service/network_sweep.h"
#include "service/result_cache.h"
#include "service/sweep.h"
#include "tensor/gemm.h"
#include "trace.h"

using namespace saffire;
using perfbench::Layer;
using perfbench::Span;

#define PERFBENCH_WRAP(ret, sym, params, args, layer) \
  extern "C" ret __real_##sym params;                 \
  extern "C" ret __wrap_##sym params {                \
    const Span span(layer);                           \
    return __real_##sym args;                         \
  }

// service: planning, the result cache, the executor's blocking Run.
PERFBENCH_WRAP(CampaignPlan, _ZN7saffire17BuildCampaignPlanERKSt6vectorINS_9SweepSpecESaIS1_EE,
               (const std::vector<SweepSpec>& specs), (specs), Layer::kPlan)
PERFBENCH_WRAP(CampaignPlan, _ZN7saffire17BuildCampaignPlanERKNS_9SweepSpecE,
               (const SweepSpec& spec), (spec), Layer::kPlan)
PERFBENCH_WRAP(NetworkCampaignPlan, _ZN7saffire24BuildNetworkCampaignPlanERKNS_16NetworkSweepSpecE,
               (const NetworkSweepSpec& spec), (spec), Layer::kPlan)
PERFBENCH_WRAP(std::optional<CheckpointCampaign>, _ZNK7saffire11ResultCache4LoadERKNS_14CampaignConfigEl,
               (const ResultCache* self, const CampaignConfig& config, long expected),
               (self, config, expected), Layer::kCacheLoad)
PERFBENCH_WRAP(bool, _ZNK7saffire11ResultCache5StoreERKNS_14CampaignConfigERKNS_18CheckpointCampaignE,
               (const ResultCache* self, const CampaignConfig& config,
                const CheckpointCampaign& entry),
               (self, config, entry), Layer::kCacheStore)
PERFBENCH_WRAP(SweepOutcome, _ZN7saffire16CampaignExecutor3RunERKNS_12CampaignPlanERNS_10RecordSinkERKNS_10RunOptionsE,
               (CampaignExecutor* self, const CampaignPlan& plan, RecordSink& sink,
                const RunOptions& options),
               (self, plan, sink, options), Layer::kExecutorWait)

// fi + patterns: golden runs, campaign preparation, grouped execution.
PERFBENCH_WRAP(std::shared_ptr<const GoldenRunCache::Entry>,
               _ZN7saffire14GoldenRunCache12GetOrComputeERKNS_11AccelConfigERKNS_12WorkloadSpecENS_8DataflowEPb,
               (GoldenRunCache* self, const AccelConfig& config,
                const WorkloadSpec& workload, Dataflow dataflow, bool* hit),
               (self, config, workload, dataflow, hit), Layer::kGolden)
PERFBENCH_WRAP(PreparedCampaign, _ZN7saffire15PrepareCampaignERKNS_14CampaignConfigEPNS_8FiRunnerE,
               (const CampaignConfig& config, FiRunner* runner), (config, runner),
               Layer::kPrepare)
PERFBENCH_WRAP(std::vector<ExperimentRecord>, _ZN7saffire16RunPreparedBatchERKNS_16PreparedCampaignERNS_8FiRunnerEmm,
               (const PreparedCampaign& prepared, FiRunner& runner,
                std::size_t begin, std::size_t end),
               (prepared, runner, begin, end), Layer::kGroup)
PERFBENCH_WRAP(std::vector<ExperimentRecord>, _ZN7saffire16RunPreparedBatchERKNS_16PreparedCampaignERNS_8FiRunnerEmmNS_14CampaignEngineEPm,
               (const PreparedCampaign& prepared, FiRunner& runner,
                std::size_t begin, std::size_t end, CampaignEngine engine,
                std::uint64_t* simulated),
               (prepared, runner, begin, end, engine, simulated), Layer::kGroup)

// accel: accelerator construction and driver-executed layer GEMMs.
PERFBENCH_WRAP(void, _ZN7saffire11AcceleratorC1ERKNS_11AccelConfigE,
               (Accelerator* self, const AccelConfig& config), (self, config),
               Layer::kAccelConstruct)
PERFBENCH_WRAP(Int32Tensor, _ZN7saffire6Driver4GemmERKNS_6TensorIaEES4_RKNS_11ExecOptionsE,
               (Driver* self, const Int8Tensor& a, const Int8Tensor& b,
                const ExecOptions& options),
               (self, a, b, options), Layer::kAccelGemm)

// dnn: network preparation (training), inference, host reference GEMMs.
PERFBENCH_WRAP(void, _ZN7saffire15PreparedNetworkC1ERKNS_11NetworkSpecE,
               (PreparedNetwork* self, const NetworkSpec& spec), (self, spec),
               Layer::kDnnPrepare)
PERFBENCH_WRAP(PreparedNetwork::Inference,
               _ZNK7saffire15PreparedNetwork3RunERKSt8functionIFNS_6TensorIiEEiRKNS2_IaEES6_EE,
               (const PreparedNetwork* self, const LayerGemm& gemm), (self, gemm),
               Layer::kDnnRun)
PERFBENCH_WRAP(PreparedNetwork::Inference,
               _ZNK7saffire15PreparedNetwork3RunERKSt8functionIFNS_6TensorIiEEiRKNS2_IaEES6_EERKSt6vectorINS_19LayerMitigationPlanESaISC_EERKS1_IFviS6_S6_RS3_EE,
               (const PreparedNetwork* self, const LayerGemm& gemm,
                const std::vector<LayerMitigationPlan>& plans,
                const PreparedNetwork::LayerObserver& observe),
               (self, gemm, plans, observe), Layer::kDnnRun)
PERFBENCH_WRAP(Int32Tensor, _ZN7saffire7GemmRefERKNS_6TensorIaEES3_,
               (const Int8Tensor& a, const Int8Tensor& b), (a, b),
               Layer::kHostGemm)

// appfi: tensor-level perturbation.
PERFBENCH_WRAP(Int32Tensor, _ZNK7saffire9NetworkFi14InjectForFaultERKNS_6TensorIiEERKNS_12WorkloadSpecERKNS_9FaultSpecE,
               (const NetworkFi* self, const Int32Tensor& golden,
                const WorkloadSpec& workload, const FaultSpec& fault),
               (self, golden, workload, fault), Layer::kAppfiInject)
PERFBENCH_WRAP(Int32Tensor, _ZNK7saffire9NetworkFi6InjectERKNS_6TensorIiEERKNS_12WorkloadSpecERKNS_9FaultSpecE,
               (const NetworkFi* self, const Int32Tensor& golden,
                const WorkloadSpec& workload, const FaultSpec& fault),
               (self, golden, workload, fault), Layer::kAppfiInject)

// mitigation: per-fault planning and ABFT verify-and-correct. ABFT
// detections are counted here, at the boundary, from the returned report.
PERFBENCH_WRAP(LayerMitigationPlan,
               _ZN7saffire19PlanLayerMitigationENS_16MitigationPolicyERKNS_12WorkloadSpecERKNS_11AccelConfigENS_8DataflowERKNS_9FaultSpecESt4spanIKdLm18446744073709551615EEPKNS_6TensorIaEE,
               (MitigationPolicy policy, const WorkloadSpec& workload,
                const AccelConfig& accel, Dataflow dataflow, const FaultSpec& fault,
                std::span<const double> salience, const Int8Tensor* golden_b),
               (policy, workload, accel, dataflow, fault, salience, golden_b),
               Layer::kMitigationPlan)

extern "C" AbftReport
__real__ZN7saffire16VerifyAndCorrectERKNS_6TensorIaEES3_RNS0_IiEE(
    const Int8Tensor& a, const Int8Tensor& b, Int32Tensor& out);
extern "C" AbftReport __wrap__ZN7saffire16VerifyAndCorrectERKNS_6TensorIaEES3_RNS0_IiEE(
    const Int8Tensor& a, const Int8Tensor& b, Int32Tensor& out) {
  const Span span(Layer::kAbft);
  AbftReport report =
      __real__ZN7saffire16VerifyAndCorrectERKNS_6TensorIaEES3_RNS0_IiEE(a, b, out);
  if (report.detected()) perfbench::NoteAbftDetected();
  return report;
}
