// The mitigation axis end to end: spec round-trips and validation gates,
// campaign identity, rung equivalence of mitigated records on the
// extraction network, accuracy recovery on the trained MLP, and the
// CSV/JSONL record surfaces.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "service/network_run.h"

namespace saffire {
namespace {

AccelConfig SmallAccel() {
  AccelConfig config;
  config.array.rows = 8;
  config.array.cols = 8;
  config.max_compute_rows = 64;
  config.spad_rows = 128;
  config.acc_rows = 64;
  config.dram_bytes = 1 << 20;
  return config;
}

const std::vector<MitigationPolicy>& AllPolicies() {
  static const std::vector<MitigationPolicy> policies = {
      MitigationPolicy::kNone, MitigationPolicy::kColumnRemap,
      MitigationPolicy::kRowRemap, MitigationPolicy::kPruneChannel,
      MitigationPolicy::kAbftCorrect};
  return policies;
}

NetworkSweepSpec ExtractionSpec() {
  NetworkSweepSpec spec;
  spec.accel = SmallAccel();
  spec.network.kind = NetworkKind::kExtraction;
  spec.network.batch = 4;
  spec.network.extraction_k = 8;
  spec.network.extraction_n = 8;
  spec.max_sites = 6;
  return spec;
}

NetworkSweepSpec MlpSpec() {
  NetworkSweepSpec spec;
  spec.accel = SmallAccel();
  spec.network.kind = NetworkKind::kMlp;
  spec.network.batch = 16;
  spec.network.hidden = 8;
  spec.network.train_samples = 300;
  spec.network.train_epochs = 40;
  spec.bits = {24};  // high accumulator bit: visible logit damage
  spec.max_sites = 4;
  return spec;
}

TEST(NetworkMitigationSpecTest, JsonRoundTripPreservesMitigations) {
  NetworkSweepSpec spec = ExtractionSpec();
  spec.mitigations = AllPolicies();
  EXPECT_EQ(spec.CampaignCount(), AllPolicies().size());
  const std::string json = spec.ToJson();
  const NetworkSweepSpec parsed = ParseNetworkSweepSpec(json);
  EXPECT_EQ(parsed.mitigations, spec.mitigations);
  EXPECT_EQ(parsed.ToJson(), json);
}

TEST(NetworkMitigationSpecTest, ValidateGatesPredictorPoliciesBySignal) {
  NetworkSweepSpec spec = ExtractionSpec();
  spec.rung = NetworkRung::kCycleAccurate;
  spec.signals = {MacSignal::kActForward};
  spec.bits = {3};  // in act_forward's 8-bit width
  spec.mitigations = {MitigationPolicy::kNone};
  EXPECT_NO_THROW(spec.Validate());
  spec.mitigations = {MitigationPolicy::kColumnRemap};
  EXPECT_THROW(spec.Validate(), std::invalid_argument);
  spec.mitigations.clear();
  EXPECT_THROW(spec.Validate(), std::invalid_argument);
}

TEST(NetworkMitigationSpecTest, CampaignKeyIncludesMitigation) {
  const NetworkSweepSpec spec = ExtractionSpec();
  NetworkCampaign remap;
  remap.mitigation = MitigationPolicy::kColumnRemap;
  const NetworkCampaign none;
  EXPECT_NE(NetworkCampaignKey(spec, remap), NetworkCampaignKey(spec, none));
}

TEST(NetworkMitigationSweepTest, ExtractionRungsAreEquivalentPerPolicy) {
  NetworkSweepSpec spec = ExtractionSpec();
  spec.mitigations = AllPolicies();
  NetworkCollectorSink appfi;
  spec.rung = NetworkRung::kAppFi;
  EXPECT_TRUE(RunNetworkSweep(spec, appfi).ok());
  NetworkCollectorSink cycle;
  spec.rung = NetworkRung::kCycleAccurate;
  EXPECT_TRUE(RunNetworkSweep(spec, cycle).ok());

  ASSERT_EQ(appfi.records.size(), AllPolicies().size() * 6);
  ASSERT_EQ(cycle.records.size(), appfi.records.size());
  for (std::size_t i = 0; i < appfi.records.size(); ++i) {
    EXPECT_TRUE(RungEquivalent(appfi.records[i], cycle.records[i]))
        << "record " << i;
  }
  const NetworkCampaignPlan plan = BuildNetworkCampaignPlan(spec);
  for (const NetworkRecord& record : appfi.records) {
    const MitigationPolicy policy =
        plan.campaigns[record.campaign_index].mitigation;
    if (policy == MitigationPolicy::kNone) {
      // Unmitigated campaigns carry the sentinels.
      EXPECT_FALSE(record.mit_sdc);
      EXPECT_EQ(record.mit_corrupted, 0);
      EXPECT_EQ(record.mit_correct_faulty, -1);
    } else if (policy == MitigationPolicy::kAbftCorrect) {
      // A single-column adder fault is exactly ABFT-correctable: the
      // mitigated inference is clean.
      EXPECT_FALSE(record.mit_sdc);
      EXPECT_EQ(record.mit_corrupted, 0);
    } else if (policy == MitigationPolicy::kPruneChannel) {
      // Pruning deliberately zeroes the reached channel: residual deviation
      // is confined to it but top-1 semantics do not apply to extraction.
      EXPECT_TRUE(record.mit_sdc);
      EXPECT_GT(record.mit_corrupted, 0);
    }
  }
}

TEST(NetworkMitigationSweepTest, ColumnRemapRecoversAccuracyOnFirstLayer) {
  NetworkSweepSpec spec = MlpSpec();
  spec.layers = {0};  // fault scoped to fc1: remap shelters salient hiddens
  spec.mitigations = {MitigationPolicy::kColumnRemap};
  for (const NetworkRung rung :
       {NetworkRung::kAppFi, NetworkRung::kCycleAccurate}) {
    spec.rung = rung;
    NetworkCollectorSink sink;
    EXPECT_TRUE(RunNetworkSweep(spec, sink).ok());
    ASSERT_EQ(sink.records.size(), 4u);
    std::int64_t base = 0, mitigated = 0, sdc = 0;
    for (const NetworkRecord& record : sink.records) {
      ASSERT_GE(record.correct_faulty, 0);
      ASSERT_GE(record.mit_correct_faulty, 0);
      base += record.correct_faulty;
      mitigated += record.mit_correct_faulty;
      sdc += record.sdc ? 1 : 0;
    }
    EXPECT_GT(sdc, 0) << ToString(rung);
    EXPECT_GT(mitigated, base) << ToString(rung);
  }
}

TEST(NetworkMitigationSweepTest, PruneRecoversHalfTheLostAccuracy) {
  // The acceptance scenario: a permanent whole-network SA1 on a high
  // accumulator bit; pruning the known-corrupt channel must win back at
  // least half of the lost top-1 accuracy, identically on both rungs.
  NetworkSweepSpec spec = MlpSpec();
  spec.mitigations = {MitigationPolicy::kPruneChannel};
  for (const NetworkRung rung :
       {NetworkRung::kAppFi, NetworkRung::kCycleAccurate}) {
    spec.rung = rung;
    NetworkCollectorSink sink;
    EXPECT_TRUE(RunNetworkSweep(spec, sink).ok());
    ASSERT_EQ(sink.records.size(), 4u);
    std::int64_t golden = 0, base = 0, mitigated = 0;
    for (const NetworkRecord& record : sink.records) {
      golden += record.correct_golden;
      base += record.correct_faulty;
      mitigated += record.mit_correct_faulty;
    }
    ASSERT_GT(golden, base) << "fault must degrade accuracy, "
                            << ToString(rung);
    EXPECT_GE(mitigated - base, (golden - base + 1) / 2) << ToString(rung);
  }
}

TEST(NetworkMitigationSweepTest, CsvRowsCarryThePolicyColumn) {
  NetworkSweepSpec spec = ExtractionSpec();
  spec.max_sites = 2;
  spec.mitigations = {MitigationPolicy::kNone,
                      MitigationPolicy::kPruneChannel};
  std::ostringstream csv;
  NetworkCsvSink sink(csv);
  EXPECT_TRUE(RunNetworkSweep(spec, sink).ok());
  const std::string text = csv.str();
  EXPECT_NE(text.find(",mitigation,"), std::string::npos);
  EXPECT_NE(text.find(",none,"), std::string::npos);
  EXPECT_NE(text.find(",prune_channel,"), std::string::npos);
  EXPECT_NE(text.find(",mit_corrupted,"), std::string::npos);
}

TEST(NetworkMitigationSweepTest, CheckpointRoundTripsMitigatedRecords) {
  NetworkSweepSpec spec = ExtractionSpec();
  spec.max_sites = 3;
  spec.mitigations = {MitigationPolicy::kColumnRemap,
                      MitigationPolicy::kPruneChannel};
  std::ostringstream jsonl;
  NetworkJsonlSink jsonl_sink(jsonl);
  NetworkCollectorSink first;
  NetworkTeeSink tee({&jsonl_sink, &first});
  RunNetworkSweep(spec, tee);

  std::istringstream in(jsonl.str());
  const NetworkCheckpoint checkpoint = LoadNetworkCheckpoint(in);
  ASSERT_EQ(checkpoint.records.size(), first.records.size());
  NetworkRunOptions options;
  options.resume = &checkpoint;
  NetworkCollectorSink resumed;
  EXPECT_TRUE(RunNetworkSweep(spec, options, resumed).ok());
  ASSERT_EQ(resumed.records.size(), first.records.size());
  for (std::size_t i = 0; i < first.records.size(); ++i) {
    // Equality covers every mit_* field: a lossy serialization would
    // replay a different record.
    EXPECT_EQ(resumed.records[i], first.records[i]) << "record " << i;
  }
}

}  // namespace
}  // namespace saffire
