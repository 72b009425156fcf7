#include "fi/runner.h"

#include "common/check.h"
#include "fi/cone.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace saffire {
namespace {

// The physical array dataflow a run executes: the driver lowers IS onto the
// WS datapath with transposed operands (accel/driver.cc).
Dataflow LoweredDataflow(Dataflow dataflow) {
  return dataflow == Dataflow::kOutputStationary
             ? Dataflow::kOutputStationary
             : Dataflow::kWeightStationary;
}

}  // namespace

Int32Tensor ConeResult::Expand(const Int32Tensor& golden) const {
  SAFFIRE_CHECK_MSG(golden.rank() == 2, "golden " << golden.ShapeString());
  Int32Tensor output = golden;
  const std::int64_t length = golden.dim(lines_are_rows ? 1 : 0);
  for (const OutputLine& line : lines) {
    SAFFIRE_CHECK_MSG(line.index >= 0 &&
                          line.index < golden.dim(lines_are_rows ? 0 : 1) &&
                          line.offset + static_cast<std::size_t>(length) <=
                              values->size(),
                      "line " << line.index << " outside "
                              << golden.ShapeString());
    const std::int32_t* value = values->data() + line.offset;
    for (std::int64_t x = 0; x < length; ++x) {
      if (lines_are_rows) {
        output(line.index, x) = value[x];
      } else {
        output(x, line.index) = value[x];
      }
    }
  }
  return output;
}

RunResult FiRunner::RunGolden(const WorkloadSpec& workload,
                              Dataflow dataflow) {
  return Run(workload, dataflow, nullptr);
}

RunResult FiRunner::RunFaulty(const WorkloadSpec& workload, Dataflow dataflow,
                              std::span<const FaultSpec> faults) {
  SAFFIRE_SPAN("fi.faulty_run");
  FaultInjector injector(std::vector<FaultSpec>(faults.begin(), faults.end()),
                         accel_.config().array);
  return Run(workload, dataflow, &injector);
}

RunResult FiRunner::RunGoldenRecorded(const WorkloadSpec& workload,
                                      Dataflow dataflow, GoldenTrace* trace) {
  SAFFIRE_SPAN("fi.golden_record");
  SystolicArray& array = accel_.array();
  array.BeginGoldenRecording(trace);
  RunResult result;
  try {
    result = Run(workload, dataflow, nullptr);
  } catch (...) {
    array.EndGoldenRecording();
    throw;
  }
  array.EndGoldenRecording();
  return result;
}

RunResult FiRunner::RunFaultyDifferential(const WorkloadSpec& workload,
                                          Dataflow dataflow,
                                          std::span<const FaultSpec> faults,
                                          const GoldenTrace& trace) {
  SAFFIRE_SPAN("fi.differential_run");
  FaultInjector injector(std::vector<FaultSpec>(faults.begin(), faults.end()),
                         accel_.config().array);
  ColumnCone cone;
  {
    SAFFIRE_SPAN("fi.cone_derive");
    cone = FaultCone(faults, LoweredDataflow(dataflow), accel_.config().array);
  }
  SystolicArray& array = accel_.array();
  array.BeginDifferential(cone, &trace);
  RunResult result;
  try {
    result = Run(workload, dataflow, &injector);
  } catch (...) {
    array.EndDifferential();
    throw;
  }
  array.EndDifferential();
  return result;
}

RunResult FiRunner::Run(const WorkloadSpec& workload, Dataflow dataflow,
                        FaultInjector* injector) {
  const MaterializedWorkload operands = Materialize(workload);
  ExecOptions options;
  options.dataflow = dataflow;
  options.conv_lowering = workload.lowering;

  SystolicArray& array = accel_.array();
  const std::int64_t cycles_before = array.cycle();
  const std::uint64_t steps_before = array.total_pe_steps();
  const std::uint64_t skipped_before = array.pe_steps_skipped();

  array.InstallFaultHook(injector);
  RunResult result;
  try {
    result.output = driver_.Gemm(operands.a, operands.b, options);
  } catch (...) {
    array.ClearFaultHook();
    throw;
  }
  array.ClearFaultHook();

  result.cycles = array.cycle() - cycles_before;
  result.pe_steps = array.total_pe_steps() - steps_before;
  result.pe_steps_skipped = array.pe_steps_skipped() - skipped_before;
  result.fault_activations =
      injector == nullptr ? 0 : injector->activations();

  // Aggregate per-run PE activity into the default registry at the run
  // boundary — the inner per-PE loops stay uninstrumented (see obs/trace.h
  // cost model). Handles resolve once per process.
  static obs::Counter& fi_runs = obs::MetricsRegistry::Default().GetCounter(
      "saffire.fi.runs", "simulator runs (golden + faulty)");
  static obs::Counter& fi_pe_steps =
      obs::MetricsRegistry::Default().GetCounter(
          "saffire.fi.pe_steps", "PE step evaluations across runs");
  static obs::Counter& fi_pe_steps_skipped =
      obs::MetricsRegistry::Default().GetCounter(
          "saffire.fi.pe_steps_skipped",
          "PE steps elided by the fault-cone differential engine");
  fi_runs.Increment();
  fi_pe_steps.Increment(static_cast<std::int64_t>(result.pe_steps));
  fi_pe_steps_skipped.Increment(
      static_cast<std::int64_t>(result.pe_steps_skipped));
  return result;
}

}  // namespace saffire
