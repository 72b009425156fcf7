#include "accel/driver.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <type_traits>

#include "common/rng.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"

namespace saffire {
namespace {

AccelConfig PaperConfig() {
  AccelConfig config;  // 16×16 INT8 array
  config.max_compute_rows = 256;
  config.spad_rows = 512;
  config.acc_rows = 256;
  config.dram_bytes = 8 << 20;
  return config;
}

Int8Tensor RandomInt8(Rng& rng, std::vector<std::int64_t> shape) {
  Int8Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.size(); ++i) {
    t.flat(i) = static_cast<std::int8_t>(rng.UniformInt(-30, 30));
  }
  return t;
}

TEST(DriverPlanTest, WsPlanStreamsMAndTilesKN) {
  const auto config = PaperConfig();
  const auto grid = Driver::PlanTiles(1000, 40, 33, config,
                                      Dataflow::kWeightStationary);
  EXPECT_EQ(grid.tile_m(), 256);
  EXPECT_EQ(grid.tile_n(), 16);
  EXPECT_EQ(grid.tile_k(), 16);
  EXPECT_EQ(grid.m_tiles(), 4);
  EXPECT_EQ(grid.n_tiles(), 3);
  EXPECT_EQ(grid.k_tiles(), 3);
}

TEST(DriverPlanTest, OsPlanTilesAllThreeAtArraySize) {
  const auto config = PaperConfig();
  const auto grid =
      Driver::PlanTiles(40, 40, 40, config, Dataflow::kOutputStationary);
  EXPECT_EQ(grid.tile_m(), 16);
  EXPECT_EQ(grid.tile_n(), 16);
  EXPECT_EQ(grid.tile_k(), 16);
  EXPECT_EQ(grid.total_tiles(), 27);
}

TEST(DriverPlanTest, Paper112GemmIs7x7Tiles) {
  const auto config = PaperConfig();
  const auto os_grid =
      Driver::PlanTiles(112, 112, 112, config, Dataflow::kOutputStationary);
  EXPECT_EQ(os_grid.m_tiles(), 7);
  EXPECT_EQ(os_grid.n_tiles(), 7);
  const auto ws_grid =
      Driver::PlanTiles(112, 112, 112, config, Dataflow::kWeightStationary);
  EXPECT_EQ(ws_grid.n_tiles(), 7);
  EXPECT_EQ(ws_grid.k_tiles(), 7);
  EXPECT_EQ(ws_grid.m_tiles(), 1);  // 112 rows stream in one chunk
}

struct GemmCase {
  Dataflow dataflow;
  // gtest prints the raw bytes of each case into its test name, and copies
  // cases member by member. Spelling the padding after `dataflow` out as a
  // zeroed member keeps heap and stack garbage out of those names.
  std::uint8_t zero_fill[7] = {};
  std::int64_t m, k, n;
};
static_assert(std::has_unique_object_representations_v<GemmCase>);

class DriverGemmTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(DriverGemmTest, TiledGemmMatchesReference) {
  const auto& tc = GetParam();
  Accelerator accel(PaperConfig());
  Driver driver(accel);
  Rng rng(static_cast<std::uint64_t>(tc.m * 10000 + tc.k * 100 + tc.n));
  const auto a = RandomInt8(rng, {tc.m, tc.k});
  const auto b = RandomInt8(rng, {tc.k, tc.n});
  ExecOptions options;
  options.dataflow = tc.dataflow;
  EXPECT_EQ(driver.Gemm(a, b, options), GemmRef(a, b));
}

std::vector<GemmCase> GemmCases() {
  std::vector<GemmCase> cases;
  const auto add = [&cases](Dataflow dataflow, std::int64_t m,
                            std::int64_t k, std::int64_t n) {
    GemmCase& tc = cases.emplace_back();
    tc.dataflow = dataflow;
    tc.m = m;
    tc.k = k;
    tc.n = n;
  };
  for (const Dataflow dataflow :
       {Dataflow::kWeightStationary, Dataflow::kOutputStationary}) {
    add(dataflow, 16, 16, 16);     // untiled (Table I)
    add(dataflow, 112, 112, 112);  // RQ3 tiled GEMM
    add(dataflow, 1, 1, 1);
    add(dataflow, 17, 16, 16);   // ragged M
    add(dataflow, 16, 17, 16);   // ragged K
    add(dataflow, 16, 16, 17);   // ragged N
    add(dataflow, 33, 45, 29);   // ragged everywhere
    add(dataflow, 300, 16, 16);  // M beyond max_compute_rows
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Shapes, DriverGemmTest,
                         ::testing::ValuesIn(GemmCases()));

TEST(DriverTest, GemmQuantizedAppliesConfiguredPostProcessing) {
  Accelerator accel(PaperConfig());
  Driver driver(accel);
  const auto a = Int8Tensor::Full({4, 8}, 2);
  const auto b = Int8Tensor::Full({8, 4}, 3);  // C = 48 everywhere
  ExecOptions options;
  options.output_shift = 4;  // 48/16 = 3
  const auto c = driver.GemmQuantized(a, b, options);
  for (std::int64_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c.flat(i), 3);
  }
}

TEST(DriverTest, GemmQuantizedRelu) {
  Accelerator accel(PaperConfig());
  Driver driver(accel);
  const auto a = Int8Tensor::Full({2, 2}, -1);
  const auto b = Int8Tensor::Full({2, 2}, 1);  // C = −2 everywhere
  ExecOptions options;
  options.activation = Activation::kRelu;
  const auto c = driver.GemmQuantized(a, b, options);
  for (std::int64_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c.flat(i), 0);
  }
}

TEST(DriverTest, ConvMatchesReferenceSmallKernel) {
  // Table I: 3×3×3×3 kernel, 16×16 input — the untiled conv configuration.
  Accelerator accel(PaperConfig());
  Driver driver(accel);
  ConvParams p;
  p.in_channels = 3;
  p.height = 16;
  p.width = 16;
  p.out_channels = 3;
  p.kernel_h = 3;
  p.kernel_w = 3;
  Rng rng(5);
  const auto input = RandomInt8(rng, {1, 3, 16, 16});
  const auto kernel = RandomInt8(rng, {3, 3, 3, 3});
  EXPECT_EQ(driver.Conv(input, kernel, p, ExecOptions{}),
            ConvRef(input, kernel, p));
}

TEST(DriverTest, ConvMatchesReferenceTiledKernel) {
  // Table I: 3×3×3×8 kernel — CRS = 27 > 16 forces K-dimension tiling.
  Accelerator accel(PaperConfig());
  Driver driver(accel);
  ConvParams p;
  p.in_channels = 3;
  p.height = 16;
  p.width = 16;
  p.out_channels = 8;
  p.kernel_h = 3;
  p.kernel_w = 3;
  Rng rng(6);
  const auto input = RandomInt8(rng, {1, 3, 16, 16});
  const auto kernel = RandomInt8(rng, {8, 3, 3, 3});
  ExecOptions options;
  options.dataflow = Dataflow::kOutputStationary;
  EXPECT_EQ(driver.Conv(input, kernel, p, options),
            ConvRef(input, kernel, p));
}

TEST(DriverTest, LastProgramIsAuditable) {
  Accelerator accel(PaperConfig());
  Driver driver(accel);
  const auto a = Int8Tensor::Full({16, 16}, 1);
  const auto b = Int8Tensor::Full({16, 16}, 1);
  (void)driver.Gemm(a, b, ExecOptions{});
  const Program& program = driver.last_program();
  // Untiled WS GEMM: config, mvin B, preload, mvin A, compute, mvout.
  EXPECT_EQ(program.size(), 6u);
  const std::string listing = program.Disassembly();
  EXPECT_NE(listing.find("config dataflow=WS"), std::string::npos);
  EXPECT_NE(listing.find("preload"), std::string::npos);
  EXPECT_NE(listing.find("mvout32"), std::string::npos);
}

TEST(DriverTest, StatsAccumulateAcrossOperations) {
  Accelerator accel(PaperConfig());
  Driver driver(accel);
  const auto a = Int8Tensor::Full({16, 16}, 1);
  const auto b = Int8Tensor::Full({16, 16}, 1);
  (void)driver.Gemm(a, b, ExecOptions{});
  const auto computes_after_one = accel.stats().computes;
  (void)driver.Gemm(a, b, ExecOptions{});
  EXPECT_EQ(accel.stats().computes, 2 * computes_after_one);
  EXPECT_GT(accel.cycles(), 0);
}

TEST(DriverTest, RejectsMismatchedOperands) {
  Accelerator accel(PaperConfig());
  Driver driver(accel);
  EXPECT_THROW(
      driver.Gemm(Int8Tensor({4, 5}), Int8Tensor({6, 4}), ExecOptions{}),
      std::invalid_argument);
}

// Cross-dataflow consistency: both dataflows must produce identical results
// for identical operations (they share the golden semantics even though
// their cycle behaviour differs).
class CrossDataflowTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(CrossDataflowTest, WsAndOsAgree) {
  const auto [m, k, n] = GetParam();
  Accelerator accel(PaperConfig());
  Driver driver(accel);
  Rng rng(static_cast<std::uint64_t>(m + k + n));
  const auto a = RandomInt8(rng, {m, k});
  const auto b = RandomInt8(rng, {k, n});
  ExecOptions ws;
  ws.dataflow = Dataflow::kWeightStationary;
  ExecOptions os;
  os.dataflow = Dataflow::kOutputStationary;
  EXPECT_EQ(driver.Gemm(a, b, ws), driver.Gemm(a, b, os));
}

INSTANTIATE_TEST_SUITE_P(Shapes, CrossDataflowTest,
                         ::testing::Values(std::tuple{16, 16, 16},
                                           std::tuple{48, 32, 48},
                                           std::tuple{7, 21, 35}));

}  // namespace
}  // namespace saffire
