// Spatial classification of fault patterns — the paper's taxonomy
// (Sec. IV, Discussion): single-element, single-element multi-tile,
// single-column, single-column multi-tile, single-channel, and
// multi-channel corruption, plus the masked and unrecognized outcomes the
// framework needs for exhaustive campaigns.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "accel/driver.h"
#include "fi/workload.h"
#include "patterns/corruption.h"

namespace saffire {

enum class PatternClass : std::uint8_t {
  kMasked = 0,                 // no output corruption observed
  kSingleElement,              // Fig. 3b  — one corrupted element
  kSingleElementMultiTile,     // Fig. 3d  — same element offset in every tile
  kSingleRow,                  // the row analogue (paper Sec. III-B list)
  kSingleRowMultiTile,
  kSingleColumn,               // Fig. 3a  — one fully corrupted column
  kSingleColumnMultiTile,      // Fig. 3c  — same column offset across tiles
  kSingleChannel,              // Fig. 3e  — one conv output channel
  kMultiChannel,               // Fig. 3f/g — several conv output channels
  kOther,                      // corruption with none of the above shapes
};

inline constexpr int kNumPatternClasses = 10;

std::string ToString(PatternClass pattern);

// Parses exactly the ToString names; throws std::invalid_argument naming
// the accepted values otherwise.
PatternClass ParsePatternClass(const std::string& name);

// Everything the classifier needs to know about how the output matrix was
// produced: its dimensions, the output-space tile extents (from the
// driver's plan), and — for convolutions — how matrix columns map to output
// channels.
struct ClassifyContext {
  OpType op = OpType::kGemm;
  std::int64_t rows = 0;       // output matrix dimensions
  std::int64_t cols = 0;
  std::int64_t tile_rows = 0;  // output tile extents (tile_m × tile_n)
  std::int64_t tile_cols = 0;
  // Valid when op == kConv:
  ConvParams conv;
  ConvLowering lowering = ConvLowering::kShiftGemm;

  bool untiled() const { return rows <= tile_rows && cols <= tile_cols; }
};

// Builds the context from the workload, the accelerator configuration, and
// the dataflow (which fixes the driver's tile plan).
ClassifyContext MakeClassifyContext(const WorkloadSpec& workload,
                                    const AccelConfig& accel,
                                    Dataflow dataflow);

// Output channel fed by matrix column `col` under the context's lowering.
std::int64_t ColumnToChannel(std::int64_t col, const ClassifyContext& context);

// Classifies a corruption map in one linear pass. Deterministic and total:
// every map gets exactly one class. `map.corrupted` must be strictly
// increasing in row-major order, as ExtractCorruption leaves it; a map out
// of that order throws std::invalid_argument.
PatternClass Classify(const CorruptionMap& map, const ClassifyContext& context);

// Classify over a stream of corrupted cells, for callers that find them
// without building a map (the campaign record builder). Add every cell in
// strictly increasing row-major order, then call Finish once.
//
// The classes only ask whether the cells share one within-tile offset, lie
// in one tile, and fill whole rows or whole columns. Offsets and tiles are
// products of a row part and a column part, so each question splits into
// one about the rows hit and one about the columns hit: rows arrive as
// runs (one division per row), columns as per-column hit counts (one
// division per column at Finish).
class PatternClassifier {
 public:
  explicit PatternClassifier(const ClassifyContext& context);

  void Add(std::int64_t row, std::int64_t col) {
    if (row != row_) NextRow(row, col);
    if (col <= last_col_ || col >= context_.cols) [[unlikely]] {
      Reject(row, col);
    }
    last_col_ = col;
    ++row_hits_;
    ++col_hits_[static_cast<std::size_t>(col)];
    ++count_;
  }

  std::int64_t count() const { return count_; }

  PatternClass Finish();

 private:
  void NextRow(std::int64_t row, std::int64_t col);
  void EndRow();
  [[noreturn]] void Reject(std::int64_t row, std::int64_t col) const;

  const ClassifyContext& context_;
  std::vector<std::int64_t> col_hits_;  // per output column
  std::int64_t count_ = 0;
  std::int64_t first_row_ = -1;
  std::int64_t row_ = -1;  // the current row run
  std::int64_t last_col_ = -1;  // its last cell's column
  std::int64_t row_hits_ = 0;
  bool rows_full_ = true;      // every finished run spans all columns
  std::int64_t row_offset_ = -1;
  bool one_row_offset_ = true;  // every finished run at row_offset_
};

}  // namespace saffire
