// Checkpoint/resume: a JSONL stream written by JsonlRecordSink must load
// back, survive truncation of its final line, reject foreign plans, and —
// the core property — make a resumed run reproduce the uninterrupted one
// without re-simulating what is already on disk.
#include "service/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "common/crc32.h"
#include "service/executor.h"
#include "service/sink.h"

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

SweepSpec BaseSpec() {
  SweepSpec spec;
  spec.accel = SmallAccel();
  WorkloadSpec workload;
  workload.name = "gemm-20";
  workload.m = workload.k = workload.n = 20;
  spec.workloads = {workload};
  return spec;
}

// Runs the plan through a JSONL sink and returns the stream contents.
std::string RunToJsonl(const CampaignPlan& plan,
                       const RunOptions& options = {}) {
  std::ostringstream out;
  JsonlRecordSink sink(out);
  CampaignExecutor::Shared().Run(plan, sink, options);
  return out.str();
}

void ExpectIdentical(const CampaignResult& expected,
                     const CampaignResult& actual) {
  EXPECT_EQ(expected.golden_cycles, actual.golden_cycles);
  EXPECT_EQ(expected.golden_pe_steps, actual.golden_pe_steps);
  ASSERT_EQ(expected.records.size(), actual.records.size());
  for (std::size_t i = 0; i < expected.records.size(); ++i) {
    EXPECT_EQ(expected.records[i], actual.records[i]) << "record " << i;
  }
}

TEST(CheckpointTest, JsonlRoundTripsEveryRecord) {
  SweepSpec spec = BaseSpec();
  spec.max_sites = 6;
  spec.bits = {8, 31};
  const CampaignPlan plan = BuildCampaignPlan(spec);
  const std::string jsonl = RunToJsonl(plan);

  std::istringstream in(jsonl);
  const SweepCheckpoint checkpoint = LoadSweepCheckpoint(in);
  ValidateCheckpoint(checkpoint, plan);
  ASSERT_EQ(checkpoint.campaigns.size(), 2u);
  EXPECT_EQ(checkpoint.TotalRecords(), plan.total_experiments());
  for (const auto& [index, campaign] : checkpoint.campaigns) {
    EXPECT_TRUE(campaign.Complete()) << "campaign " << index;
  }

  // Replaying the checkpoint reproduces the records with zero simulation.
  CampaignExecutor& executor = CampaignExecutor::Shared();
  const ExecutorStats before = executor.stats();
  CollectorSink collector;
  RunOptions options;
  options.checkpoint = &checkpoint;
  executor.Run(plan, collector, options);
  const ExecutorStats after = executor.stats();
  EXPECT_EQ(after.experiments_run, before.experiments_run);
  EXPECT_EQ(after.campaigns_replayed - before.campaigns_replayed, 2);
  EXPECT_EQ(after.experiments_replayed - before.experiments_replayed,
            plan.total_experiments());

  CollectorSink fresh;
  executor.Run(plan, fresh);
  ASSERT_EQ(collector.results().size(), fresh.results().size());
  for (std::size_t c = 0; c < fresh.results().size(); ++c) {
    ExpectIdentical(fresh.results()[c], collector.results()[c]);
  }
}

TEST(CheckpointTest, TruncatedFinalLineResumesToIdenticalRun) {
  SweepSpec spec = BaseSpec();
  spec.max_sites = 8;
  spec.bits = {8, 31};
  const CampaignPlan plan = BuildCampaignPlan(spec);
  const std::string jsonl = RunToJsonl(plan);

  // Kill the run mid-write: drop the tail, leaving a half-written line.
  const std::size_t cut = jsonl.size() * 2 / 3;
  const std::string truncated = jsonl.substr(0, cut);

  std::istringstream in(truncated);
  const SweepCheckpoint checkpoint = LoadSweepCheckpoint(in);
  ValidateCheckpoint(checkpoint, plan);
  EXPECT_LT(checkpoint.TotalRecords(), plan.total_experiments());

  CollectorSink resumed;
  RunOptions options;
  options.checkpoint = &checkpoint;
  CampaignExecutor::Shared().Run(plan, resumed, options);

  CollectorSink uninterrupted;
  CampaignExecutor::Shared().Run(plan, uninterrupted);
  ASSERT_EQ(resumed.results().size(), uninterrupted.results().size());
  for (std::size_t c = 0; c < resumed.results().size(); ++c) {
    ExpectIdentical(uninterrupted.results()[c], resumed.results()[c]);
  }
}

TEST(CheckpointTest, ShardJsonlsMergeIntoTheFullSweep) {
  SweepSpec spec = BaseSpec();
  spec.bits = {8, 31};
  spec.shards = 2;
  const CampaignPlan plan = BuildCampaignPlan(spec);

  // Two independent shard runs, as two processes would produce them.
  SweepCheckpoint merged;
  for (int shard = 0; shard < 2; ++shard) {
    RunOptions options;
    options.only_shard = shard;
    std::istringstream in(RunToJsonl(plan, options));
    merged.MergeFrom(LoadSweepCheckpoint(in));
  }
  ValidateCheckpoint(merged, plan);
  EXPECT_EQ(merged.TotalRecords(), plan.total_experiments());

  // The merged checkpoint replays the full sweep without any simulation.
  CampaignExecutor& executor = CampaignExecutor::Shared();
  const ExecutorStats before = executor.stats();
  CollectorSink collector;
  RunOptions options;
  options.checkpoint = &merged;
  executor.Run(plan, collector, options);
  EXPECT_EQ(executor.stats().experiments_run, before.experiments_run);

  CollectorSink fresh;
  executor.Run(plan, fresh);
  for (std::size_t c = 0; c < fresh.results().size(); ++c) {
    ExpectIdentical(fresh.results()[c], collector.results()[c]);
  }
}

TEST(CheckpointTest, RejectsCheckpointFromDifferentPlan) {
  SweepSpec spec = BaseSpec();
  spec.max_sites = 4;
  const CampaignPlan plan = BuildCampaignPlan(spec);
  std::istringstream in(RunToJsonl(plan));
  const SweepCheckpoint checkpoint = LoadSweepCheckpoint(in);

  SweepSpec other = BaseSpec();
  other.max_sites = 4;
  other.seed = 77;  // different sampling -> different sites -> different key
  EXPECT_THROW(ValidateCheckpoint(checkpoint, BuildCampaignPlan(other)),
               std::invalid_argument);
}

TEST(CheckpointTest, DropsMalformedInteriorLineAndCounts) {
  SweepSpec spec = BaseSpec();
  spec.max_sites = 3;
  const CampaignPlan plan = BuildCampaignPlan(spec);
  std::string jsonl = RunToJsonl(plan);
  // Corrupt the first line (the "sweep" header, which carries no resumable
  // state). The loader must drop exactly that line, count it, and keep
  // every record — a damaged line costs its own content, never the file.
  jsonl.front() = '#';
  std::istringstream in(jsonl);
  CheckpointLoadStats stats;
  const SweepCheckpoint checkpoint = LoadSweepCheckpoint(in, &stats);
  EXPECT_EQ(stats.dropped, 1);
  EXPECT_EQ(stats.records, plan.total_experiments());
  ValidateCheckpoint(checkpoint, plan);
  EXPECT_EQ(checkpoint.TotalRecords(), plan.total_experiments());
}

TEST(CheckpointTest, CrcSealCatchesBitFlippedRecordLine) {
  SweepSpec spec = BaseSpec();
  spec.max_sites = 4;
  const CampaignPlan plan = BuildCampaignPlan(spec);
  std::string jsonl = RunToJsonl(plan);

  // Tamper with a digit inside a record line. The line stays valid JSON —
  // without the CRC seal this would resume from a poisoned record.
  const std::size_t rec = jsonl.find("\"type\":\"record\"");
  ASSERT_NE(rec, std::string::npos);
  std::size_t digit = jsonl.find("\"cycles\":", rec);
  ASSERT_NE(digit, std::string::npos);
  digit += 9;  // first digit of the value
  ASSERT_TRUE(jsonl[digit] >= '0' && jsonl[digit] <= '9');
  jsonl[digit] = jsonl[digit] == '1' ? '2' : '1';

  std::istringstream in(jsonl);
  CheckpointLoadStats stats;
  const SweepCheckpoint checkpoint = LoadSweepCheckpoint(in, &stats);
  EXPECT_EQ(stats.dropped, 1);
  EXPECT_EQ(checkpoint.TotalRecords(), plan.total_experiments() - 1);
  ValidateCheckpoint(checkpoint, plan);

  // Resuming re-simulates only the dropped record and reproduces the
  // uninterrupted sweep exactly.
  CollectorSink resumed;
  RunOptions options;
  options.checkpoint = &checkpoint;
  CampaignExecutor::Shared().Run(plan, resumed, options);
  CollectorSink fresh;
  CampaignExecutor::Shared().Run(plan, fresh);
  ASSERT_EQ(resumed.results().size(), fresh.results().size());
  for (std::size_t c = 0; c < fresh.results().size(); ++c) {
    ExpectIdentical(fresh.results()[c], resumed.results()[c]);
  }
}

// The same plan run twice in one process: the second run finds every golden
// run already cached, and must still write the same bytes.
TEST(CheckpointTest, RepeatedRunWritesByteIdenticalJsonl) {
  SweepSpec spec = BaseSpec();
  spec.max_sites = 4;
  spec.dataflows = {Dataflow::kWeightStationary,
                    Dataflow::kOutputStationary};
  const CampaignPlan plan = BuildCampaignPlan(spec);
  RunOptions options;
  options.max_parallelism = 2;
  const std::string first = RunToJsonl(plan, options);
  const std::string second = RunToJsonl(plan, options);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.find("golden_cache_hit"), std::string::npos);
}

// Streams written before the campaign line dropped "golden_cache_hit" still
// load: the key is accepted and ignored.
TEST(CheckpointTest, LoadsCampaignLinesWithLegacyGoldenCacheHit) {
  SweepSpec spec = BaseSpec();
  spec.max_sites = 4;
  const CampaignPlan plan = BuildCampaignPlan(spec);
  const std::string jsonl = RunToJsonl(plan);

  // Re-seal the campaign line with the old key inserted, as it was written.
  std::istringstream lines(jsonl);
  std::string legacy;
  std::string line;
  int rewritten = 0;
  while (std::getline(lines, line)) {
    const std::size_t config = line.find(",\"config\":");
    if (line.find("\"type\":\"campaign\"") != std::string::npos &&
        config != std::string::npos) {
      line.insert(config, ",\"golden_cache_hit\":true");
      const std::string prefix = line.substr(0, line.rfind(",\"crc\":\""));
      char crc[16];
      std::snprintf(crc, sizeof(crc), "%08x", Crc32(prefix));
      line = prefix + ",\"crc\":\"" + crc + "\"}";
      ++rewritten;
    }
    legacy += line + "\n";
  }
  ASSERT_EQ(rewritten, 1);

  std::istringstream in(legacy);
  CheckpointLoadStats stats;
  const SweepCheckpoint checkpoint = LoadSweepCheckpoint(in, &stats);
  EXPECT_EQ(stats.dropped, 0);
  ValidateCheckpoint(checkpoint, plan);
  EXPECT_EQ(checkpoint.TotalRecords(), plan.total_experiments());
}

TEST(CheckpointTest, MergeRejectsConflictingRecords) {
  SweepSpec spec = BaseSpec();
  spec.max_sites = 3;
  const CampaignPlan plan = BuildCampaignPlan(spec);
  std::istringstream in_a(RunToJsonl(plan));
  SweepCheckpoint a = LoadSweepCheckpoint(in_a);
  std::istringstream in_b(RunToJsonl(plan));
  SweepCheckpoint b = LoadSweepCheckpoint(in_b);

  // Identical duplicates merge fine.
  SweepCheckpoint merged = a;
  merged.MergeFrom(b);
  EXPECT_EQ(merged.TotalRecords(), a.TotalRecords());

  // A tampered record must be caught.
  b.campaigns.at(0).records.at(0).corrupted_count += 1;
  EXPECT_THROW(a.MergeFrom(b), std::invalid_argument);
}

}  // namespace
}  // namespace saffire
