#include "patterns/classify.h"

#include <iterator>

#include "common/check.h"
#include "tensor/shift_gemm.h"

namespace saffire {

namespace {

constexpr const char* kPatternClassNames[] = {
    "masked",
    "single-element",
    "single-element-multi-tile",
    "single-row",
    "single-row-multi-tile",
    "single-column",
    "single-column-multi-tile",
    "single-channel",
    "multi-channel",
    "other"};
static_assert(std::size(kPatternClassNames) == kNumPatternClasses);

}  // namespace

std::string ToString(PatternClass pattern) {
  const auto index = static_cast<std::size_t>(pattern);
  SAFFIRE_ASSERT_MSG(index < std::size(kPatternClassNames),
                     "pattern class " << static_cast<int>(index));
  return kPatternClassNames[index];
}

PatternClass ParsePatternClass(const std::string& name) {
  for (std::size_t i = 0; i < std::size(kPatternClassNames); ++i) {
    if (name == kPatternClassNames[i]) return static_cast<PatternClass>(i);
  }
  SAFFIRE_CHECK_MSG(false,
                    "unknown pattern class '"
                        << name
                        << "' (expected masked|single-element|"
                           "single-element-multi-tile|single-row|"
                           "single-row-multi-tile|single-column|"
                           "single-column-multi-tile|single-channel|"
                           "multi-channel|other)");
}

ClassifyContext MakeClassifyContext(const WorkloadSpec& workload,
                                    const AccelConfig& accel,
                                    Dataflow dataflow) {
  workload.Validate();
  const TileGrid grid = Driver::PlanTiles(
      workload.GemmM(), workload.GemmN(), workload.GemmK(), accel, dataflow);
  ClassifyContext context;
  context.op = workload.op;
  context.rows = workload.GemmM();
  context.cols = workload.GemmN();
  context.tile_rows = grid.tile_m();
  context.tile_cols = grid.tile_n();
  context.conv = workload.conv;
  context.lowering = workload.lowering;
  return context;
}

std::int64_t ColumnToChannel(std::int64_t col,
                             const ClassifyContext& context) {
  SAFFIRE_CHECK_MSG(context.op == OpType::kConv, "not a convolution context");
  if (context.lowering == ConvLowering::kShiftGemm) {
    return ShiftGemmColToChannel(col, context.conv);
  }
  SAFFIRE_CHECK_MSG(col >= 0 && col < context.conv.out_channels,
                    "col=" << col);
  return col;  // im2col: one column per output channel
}

PatternClassifier::PatternClassifier(const ClassifyContext& context)
    : context_(context) {
  SAFFIRE_CHECK_MSG(context.rows > 0 && context.cols > 0 &&
                        context.tile_rows > 0 && context.tile_cols > 0,
                    "uninitialized ClassifyContext");
  col_hits_.assign(static_cast<std::size_t>(context.cols), 0);
}

void PatternClassifier::Reject(std::int64_t row, std::int64_t col) const {
  SAFFIRE_CHECK_MSG(false, "cell (" << row << ", " << col
                                    << ") out of range or out of row-major "
                                       "order after ("
                                    << row_ << ", " << last_col_ << ")");
}

void PatternClassifier::NextRow(std::int64_t row, std::int64_t col) {
  if (row < row_ || row >= context_.rows) Reject(row, col);
  EndRow();
  if (count_ == 0) first_row_ = row;
  row_ = row;
  row_hits_ = 0;
  last_col_ = -1;
}

void PatternClassifier::EndRow() {
  if (row_ < 0) return;
  rows_full_ = rows_full_ && row_hits_ == context_.cols;
  const std::int64_t offset = row_ % context_.tile_rows;
  if (row_offset_ < 0) row_offset_ = offset;
  one_row_offset_ = one_row_offset_ && offset == row_offset_;
}

PatternClass PatternClassifier::Finish() {
  if (count_ == 0) return PatternClass::kMasked;
  EndRow();
  const std::int64_t last_row = row_;
  row_ = context_.rows;  // no cell may follow

  // The column half, once per column hit.
  bool cols_full = true;
  bool one_col_offset = true;
  std::int64_t col_offset = -1;
  std::int64_t min_col = -1;
  std::int64_t max_col = -1;
  for (std::int64_t col = 0; col < context_.cols; ++col) {
    const std::int64_t hits = col_hits_[static_cast<std::size_t>(col)];
    if (hits == 0) continue;
    cols_full = cols_full && hits == context_.rows;
    const std::int64_t offset = col % context_.tile_cols;
    if (col_offset < 0) col_offset = offset;
    one_col_offset = one_col_offset && offset == col_offset;
    if (min_col < 0) min_col = col;
    max_col = col;
  }

  if (context_.op == OpType::kConv && cols_full) {
    // Every corrupted column fully corrupted: whole output channels are
    // affected. (A partially corrupted column cannot be a channel pattern
    // and falls through to the generic rules.)
    std::int64_t channel = -1;
    for (std::int64_t col = min_col; col <= max_col; ++col) {
      if (col_hits_[static_cast<std::size_t>(col)] == 0) continue;
      const std::int64_t c = ColumnToChannel(col, context_);
      if (channel >= 0 && c != channel) return PatternClass::kMultiChannel;
      channel = c;
    }
    return PatternClass::kSingleChannel;
  }

  const bool one_tile =
      first_row_ / context_.tile_rows == last_row / context_.tile_rows &&
      min_col / context_.tile_cols == max_col / context_.tile_cols;
  // One element per tile, all at the same within-tile offset.
  if (one_row_offset_ && one_col_offset) {
    return count_ == 1 ? PatternClass::kSingleElement
                       : PatternClass::kSingleElementMultiTile;
  }
  // Fully corrupted columns sharing one within-tile column offset.
  if (cols_full && one_col_offset) {
    return one_tile ? PatternClass::kSingleColumn
                    : PatternClass::kSingleColumnMultiTile;
  }
  // Fully corrupted rows sharing one within-tile row offset.
  if (rows_full_ && one_row_offset_) {
    return one_tile ? PatternClass::kSingleRow
                    : PatternClass::kSingleRowMultiTile;
  }
  return PatternClass::kOther;
}

PatternClass Classify(const CorruptionMap& map,
                      const ClassifyContext& context) {
  PatternClassifier classifier(context);
  SAFFIRE_CHECK_MSG(map.rows == context.rows && map.cols == context.cols,
                    "map " << map.rows << "x" << map.cols << " vs context "
                           << context.rows << "x" << context.cols);
  for (const MatrixCoord& coord : map.corrupted) {
    classifier.Add(coord.row, coord.col);
  }
  return classifier.Finish();
}

}  // namespace saffire
