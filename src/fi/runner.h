// Executes one workload on the simulated accelerator, fault-free (golden)
// or with faults installed — the per-experiment engine of the paper's FI
// campaigns (Sec. III-B: "fault patterns are extracted by contrasting the
// output of the systolic array with and without FI").
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "accel/driver.h"
#include "fi/fault.h"
#include "fi/injector.h"
#include "fi/workload.h"

namespace saffire {

struct RunResult {
  // The GEMM-view output matrix (for convolutions: the lowered GEMM result,
  // before folding) — the space in which fault patterns are classified.
  Int32Tensor output{{1, 1}};
  // Accelerator cycles and PE evaluations consumed by this run — the basis
  // of the FI-cost comparison (the paper's 45 s GEMM vs 130 s conv).
  std::int64_t cycles = 0;
  std::uint64_t pe_steps = 0;
  // PE evaluations avoided by differential execution (0 for golden and
  // full faulty runs). pe_steps + pe_steps_skipped equals the pe_steps of
  // the equivalent full run.
  std::uint64_t pe_steps_skipped = 0;
  // Times the injected fault actually changed a signal value (0 for golden
  // runs; 0 in a faulty run means the fault was electrically masked).
  std::uint64_t fault_activations = 0;
};

// One line of a cone-sparse result: an output column, or an output row for
// ConeResult::lines_are_rows, and where its values start in the pool.
struct OutputLine {
  std::int64_t index = 0;
  std::size_t offset = 0;
};

// A grouped engine's result for one fault: the faulty values of only the
// output lines its fault cone reaches; every other output element equals
// the golden output. Lines are the physical array columns the cone covers
// in each column tile (GEMM columns n0 + c), which input-stationary runs
// store transposed, as output rows.
struct ConeResult {
  bool lines_are_rows = false;
  std::vector<OutputLine> lines;  // ascending index
  // Line values, one contiguous run per line: the output's row count for
  // columns, its column count for rows. Shared by all results of one
  // grouped call, and by the act_forward faults of one row and forcing.
  std::shared_ptr<const std::vector<std::int32_t>> values;
  // As in RunResult.
  std::int64_t cycles = 0;
  std::uint64_t pe_steps = 0;
  std::uint64_t pe_steps_skipped = 0;
  std::uint64_t fault_activations = 0;

  // The dense output: `golden` with the cone lines written over it.
  Int32Tensor Expand(const Int32Tensor& golden) const;
};

class FiRunner {
 public:
  explicit FiRunner(const AccelConfig& config) : accel_(config), driver_(accel_) {}

  // Fault-free execution.
  RunResult RunGolden(const WorkloadSpec& workload, Dataflow dataflow);

  // Execution with the given fault(s) installed for the whole run. The
  // injector is installed before the first instruction and removed after
  // the last, so permanent faults span every tile invocation — the source
  // of the paper's multi-tile fault patterns.
  RunResult RunFaulty(const WorkloadSpec& workload, Dataflow dataflow,
                      std::span<const FaultSpec> faults);

  // Fault-free execution that additionally records the golden trace needed
  // by RunFaultyDifferential (see systolic/golden_trace.h). Bit-identical
  // to RunGolden in every RunResult field.
  RunResult RunGoldenRecorded(const WorkloadSpec& workload, Dataflow dataflow,
                              GoldenTrace* trace);

  // Faulty execution restricted to the faults' static influence cone
  // (fi/cone.h); array state outside the cone is replayed from `trace`,
  // which must have been recorded by RunGoldenRecorded on the same
  // workload/dataflow/configuration. Bit-identical to RunFaulty in output,
  // cycles, and fault_activations; pe_steps + pe_steps_skipped equals
  // RunFaulty's pe_steps (tests/fi/differential_test.cc).
  RunResult RunFaultyDifferential(const WorkloadSpec& workload,
                                  Dataflow dataflow,
                                  std::span<const FaultSpec> faults,
                                  const GoldenTrace& trace);

  // Lane-parallel batched faulty execution: simulates one independent
  // single-fault experiment per entry of `faults` by replaying `trace`
  // through a shared control-flow sweep (systolic/lane_grid.h) instead of
  // re-running the accelerator once per fault. `trace` and `golden` must
  // come from RunGoldenRecorded on the same workload/dataflow/configuration.
  //
  // Unlike the per-experiment entry points, transient `at_cycle` values are
  // *relative* strike offsets into the recorded run (the convention
  // PlanFaults samples in), not absolute simulator cycles.
  //
  // Each result is cone-sparse: it holds only the output lines in the
  // fault's cone (fi/cone.h), since nothing outside the cone can differ
  // from `golden`, so its cost scales with the cone, not the output. All
  // results of one call share one value pool.
  //
  // A pure replay: accelerator state and counters are untouched. Each
  // result, expanded against `golden`, is bit-identical to
  // RunFaultyDifferential on the same fault — including the pe_steps /
  // pe_steps_skipped split, cycles (= golden), and fault_activations
  // (tests/fi/batch_test.cc).
  std::vector<ConeResult> RunFaultyBatch(const WorkloadSpec& workload,
                                         Dataflow dataflow,
                                         std::span<const FaultSpec> faults,
                                         const GoldenTrace& trace,
                                         const RunResult& golden);

  // Closed-form faulty execution: emits the same per-fault results as
  // RunFaultyBatch without stepping the array at all, by propagating each
  // fault's algebraic corruption delta through the tile schedule (the
  // FLARE-style short circuit; see fi/predicted.cc for the derivation).
  // Only provably-exact combinations are accepted: permanent stuck-at
  // faults on the three PE-local signals (kWeightOperand / kMulOut /
  // kAdderOut) and on kActForward, whose forced activation only feeds
  // wrapped MACs east of the fault. Everything else must go through
  // RunFaultyBatch (the campaign layer's kPredicted rung routes the residue
  // there automatically).
  //
  // Cone-sparse like RunFaultyBatch, with tighter lines: a PE-local fault
  // reports its own column in each column tile, an act_forward fault the
  // columns east of its own (its own column stays golden). The act_forward
  // faults of one row and forcing share those lines' values.
  //
  // Expanded against `golden`, bit-identical to RunFaultyBatch in every
  // field, including the pe_steps / pe_steps_skipped split and
  // fault_activations (tests/fi/batch_test.cc,
  // tests/patterns/campaign_predicted_test.cc).
  std::vector<ConeResult> RunFaultyPredicted(const WorkloadSpec& workload,
                                             Dataflow dataflow,
                                             std::span<const FaultSpec> faults,
                                             const GoldenTrace& trace,
                                             const RunResult& golden);

  Accelerator& accel() { return accel_; }
  Driver& driver() { return driver_; }

 private:
  RunResult Run(const WorkloadSpec& workload, Dataflow dataflow,
                FaultInjector* injector);

  Accelerator accel_;
  Driver driver_;
};

}  // namespace saffire
