// Generalizing the determinism claim beyond the paper's injection site:
// faults on the multiplier output and the weight operand share the adder
// fault's reach, and on the extraction workload the prediction is exact
// for them too.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

#include "fi/runner.h"
#include "patterns/predictor.h"

namespace saffire {
namespace {

AccelConfig TestConfig() {
  AccelConfig config;
  config.max_compute_rows = 1024;
  config.spad_rows = 2048;
  config.acc_rows = 1024;
  config.dram_bytes = 8 << 20;
  return config;
}

FaultSpec MakeFault(PeCoord pe, MacSignal signal, int bit) {
  FaultSpec fault;
  fault.pe = pe;
  fault.signal = signal;
  fault.bit = bit;
  fault.polarity = StuckPolarity::kStuckAt1;
  return fault;
}

TEST(PredictorSignalsTest, MulAndWeightShareAdderReach) {
  const auto config = TestConfig();
  for (const Dataflow dataflow :
       {Dataflow::kWeightStationary, Dataflow::kOutputStationary,
        Dataflow::kInputStationary}) {
    const auto adder = PredictPattern(
        Gemm112x112(), config, dataflow,
        MakeFault(PeCoord{4, 9}, MacSignal::kAdderOut, 8));
    const auto mul = PredictPattern(
        Gemm112x112(), config, dataflow,
        MakeFault(PeCoord{4, 9}, MacSignal::kMulOut, 8));
    const auto weight = PredictPattern(
        Gemm112x112(), config, dataflow,
        MakeFault(PeCoord{4, 9}, MacSignal::kWeightOperand, 5));
    EXPECT_EQ(mul.coords, adder.coords) << ToString(dataflow);
    EXPECT_EQ(weight.coords, adder.coords) << ToString(dataflow);
    EXPECT_EQ(mul.pattern, adder.pattern) << ToString(dataflow);
  }
}

TEST(PredictorSignalsTest, ForwardingSignalsRejected) {
  const auto config = TestConfig();
  EXPECT_THROW(PredictPattern(Gemm16x16(), config,
                              Dataflow::kWeightStationary,
                              MakeFault(PeCoord{0, 0},
                                        MacSignal::kActForward, 2)),
               std::invalid_argument);
  EXPECT_THROW(PredictPattern(Gemm16x16(), config,
                              Dataflow::kWeightStationary,
                              MakeFault(PeCoord{0, 0},
                                        MacSignal::kSouthForward, 2)),
               std::invalid_argument);
}

struct SignalCase {
  const char* label;
  MacSignal signal;
  int bit;
  Dataflow dataflow;
};

// gtest prints the param into each test's name. Print the label: the raw
// bytes start with a pointer, which differs from build to build.
void PrintTo(const SignalCase& tc, std::ostream* os) { *os << tc.label; }

class SignalDeterminismTest : public ::testing::TestWithParam<SignalCase> {};

// On the all-ones extraction workload the corrupted product/weight is the
// same for every stream element, so the observed corruption equals the
// predicted reach exactly — for all three MAC-local signals.
TEST_P(SignalDeterminismTest, ExactOnExtractionWorkload) {
  const auto& tc = GetParam();
  const auto config = TestConfig();
  const auto workload = Gemm16x16();
  FiRunner runner(config);
  const auto golden = runner.RunGolden(workload, tc.dataflow);
  const auto context = MakeClassifyContext(workload, config, tc.dataflow);
  const auto sites = AllPeCoords(config.array);
  for (std::size_t i = 0; i < sites.size(); i += 16) {
    const FaultSpec fault = MakeFault(sites[i], tc.signal, tc.bit);
    const auto faulty = runner.RunFaulty(workload, tc.dataflow, {&fault, 1});
    const auto map = ExtractCorruption(golden.output, faulty.output);
    const auto prediction =
        PredictPattern(workload, config, tc.dataflow, fault);
    EXPECT_EQ(map.corrupted, prediction.coords)
        << tc.label << " " << fault.ToString();
    EXPECT_EQ(Classify(map, context), prediction.pattern)
        << tc.label << " " << fault.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Signals, SignalDeterminismTest,
    ::testing::Values(
        SignalCase{"mul_ws", MacSignal::kMulOut, 8,
                   Dataflow::kWeightStationary},
        SignalCase{"mul_os", MacSignal::kMulOut, 8,
                   Dataflow::kOutputStationary},
        SignalCase{"mul_is", MacSignal::kMulOut, 8,
                   Dataflow::kInputStationary},
        SignalCase{"weight_ws", MacSignal::kWeightOperand, 3,
                   Dataflow::kWeightStationary},
        SignalCase{"weight_os", MacSignal::kWeightOperand, 3,
                   Dataflow::kOutputStationary}),
    [](const ::testing::TestParamInfo<SignalCase>& param_info) {
      return std::string(param_info.param.label);
    });

// With arbitrary operands the observation must stay inside the reach
// (containment), for every MAC-local signal.
TEST(PredictorSignalsTest, ContainmentForRandomOperands) {
  const auto config = TestConfig();
  WorkloadSpec workload = Gemm16x16();
  workload.input_fill = OperandFill::kRandom;
  workload.weight_fill = OperandFill::kRandom;
  FiRunner runner(config);
  for (const MacSignal signal :
       {MacSignal::kAdderOut, MacSignal::kMulOut,
        MacSignal::kWeightOperand}) {
    const int bit = signal == MacSignal::kWeightOperand ? 3 : 8;
    for (const Dataflow dataflow :
         {Dataflow::kWeightStationary, Dataflow::kOutputStationary}) {
      const auto golden = runner.RunGolden(workload, dataflow);
      for (std::int32_t d = 0; d < 16; d += 5) {
        const FaultSpec fault = MakeFault(PeCoord{d, 15 - d}, signal, bit);
        const auto faulty =
            runner.RunFaulty(workload, dataflow, {&fault, 1});
        const auto map = ExtractCorruption(golden.output, faulty.output);
        const auto prediction =
            PredictPattern(workload, config, dataflow, fault);
        EXPECT_TRUE(std::includes(prediction.coords.begin(),
                                  prediction.coords.end(),
                                  map.corrupted.begin(),
                                  map.corrupted.end()))
            << ToString(signal) << " " << ToString(dataflow) << " "
            << fault.ToString();
      }
    }
  }
}

}  // namespace
}  // namespace saffire
