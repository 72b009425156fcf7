// Randomized property test of Classify against a brute-force oracle written
// directly from the class definitions (patterns/classify.h): the corrupted
// cells are held as a std::set and every definitional question — which
// columns or rows are full, which within-tile offsets and which tiles the
// cells occupy, which channels the columns feed — is answered by
// enumerating that set. Shapes cover full and partial columns and rows,
// replicated elements, several tiles in both directions, and im2col and
// shift-GEMM convolution contexts.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "patterns/classify.h"

namespace saffire {
namespace {

using Cell = std::pair<std::int64_t, std::int64_t>;  // (row, col)

PatternClass Oracle(const std::set<Cell>& cells,
                    const ClassifyContext& context) {
  if (cells.empty()) return PatternClass::kMasked;
  std::set<std::int64_t> rows_hit;
  std::set<std::int64_t> cols_hit;
  std::set<Cell> offsets;
  std::set<Cell> tiles;
  for (const auto& [row, col] : cells) {
    rows_hit.insert(row);
    cols_hit.insert(col);
    offsets.insert({row % context.tile_rows, col % context.tile_cols});
    tiles.insert({row / context.tile_rows, col / context.tile_cols});
  }
  bool cols_full = true;
  std::set<std::int64_t> col_offsets;
  for (const std::int64_t col : cols_hit) {
    for (std::int64_t row = 0; row < context.rows; ++row) {
      cols_full = cols_full && cells.count({row, col}) == 1;
    }
    col_offsets.insert(col % context.tile_cols);
  }
  bool rows_full = true;
  std::set<std::int64_t> row_offsets;
  for (const std::int64_t row : rows_hit) {
    for (std::int64_t col = 0; col < context.cols; ++col) {
      rows_full = rows_full && cells.count({row, col}) == 1;
    }
    row_offsets.insert(row % context.tile_rows);
  }

  if (context.op == OpType::kConv && cols_full) {
    std::set<std::int64_t> channels;
    for (const std::int64_t col : cols_hit) {
      channels.insert(context.lowering == ConvLowering::kIm2Col
                          ? col
                          : col / context.conv.kernel_w);
    }
    return channels.size() == 1 ? PatternClass::kSingleChannel
                                : PatternClass::kMultiChannel;
  }
  if (offsets.size() == 1) {
    return tiles.size() == 1 ? PatternClass::kSingleElement
                             : PatternClass::kSingleElementMultiTile;
  }
  if (cols_full && col_offsets.size() == 1) {
    return tiles.size() == 1 ? PatternClass::kSingleColumn
                             : PatternClass::kSingleColumnMultiTile;
  }
  if (rows_full && row_offsets.size() == 1) {
    return tiles.size() == 1 ? PatternClass::kSingleRow
                             : PatternClass::kSingleRowMultiTile;
  }
  return PatternClass::kOther;
}

ClassifyContext RandomGemmContext(Rng& rng) {
  ClassifyContext context;
  context.rows = rng.UniformInt(1, 24);
  context.cols = rng.UniformInt(1, 24);
  // Tiles from 1 (every cell its own tile) past the output (untiled).
  context.tile_rows = rng.UniformInt(1, context.rows + 2);
  context.tile_cols = rng.UniformInt(1, context.cols + 2);
  return context;
}

ClassifyContext RandomConvContext(Rng& rng, ConvLowering lowering) {
  ClassifyContext context;
  context.op = OpType::kConv;
  context.lowering = lowering;
  context.conv.in_channels = 2;
  context.conv.height = 8;
  context.conv.width = 8;
  context.conv.out_channels = rng.UniformInt(1, 6);
  context.conv.kernel_h = 3;
  context.conv.kernel_w = rng.UniformInt(1, 3);
  context.rows = rng.UniformInt(1, 20);
  context.cols = lowering == ConvLowering::kIm2Col
                     ? context.conv.out_channels
                     : context.conv.out_channels * context.conv.kernel_w;
  context.tile_rows = rng.UniformInt(1, context.rows + 2);
  context.tile_cols = rng.UniformInt(1, context.cols + 2);
  return context;
}

// Whole columns `cols`, then (maybe) one cell knocked out of one of them.
void AddColumns(Rng& rng, const ClassifyContext& context,
                const std::vector<std::int64_t>& cols, std::set<Cell>& cells) {
  for (const std::int64_t col : cols) {
    for (std::int64_t row = 0; row < context.rows; ++row) {
      cells.insert({row, col});
    }
  }
  if (!cols.empty() && rng.Bernoulli(0.3)) {
    const std::int64_t last = static_cast<std::int64_t>(cols.size()) - 1;
    const auto pick = rng.UniformInt(0, last);
    const std::int64_t col = cols[static_cast<std::size_t>(pick)];
    cells.erase({rng.UniformInt(0, context.rows - 1), col});
  }
}

void AddRows(Rng& rng, const ClassifyContext& context,
             const std::vector<std::int64_t>& rows, std::set<Cell>& cells) {
  for (const std::int64_t row : rows) {
    for (std::int64_t col = 0; col < context.cols; ++col) {
      cells.insert({row, col});
    }
  }
  if (!rows.empty() && rng.Bernoulli(0.3)) {
    const std::int64_t last = static_cast<std::int64_t>(rows.size()) - 1;
    const auto pick = rng.UniformInt(0, last);
    const std::int64_t row = rows[static_cast<std::size_t>(pick)];
    cells.erase({row, rng.UniformInt(0, context.cols - 1)});
  }
}

// Lines at one within-tile offset in a random subset of the tiles, or at
// random positions.
std::vector<std::int64_t> PickLines(Rng& rng, std::int64_t extent,
                                    std::int64_t tile) {
  std::vector<std::int64_t> lines;
  if (rng.Bernoulli(0.6)) {
    const std::int64_t offset = rng.UniformInt(0, std::min(extent, tile) - 1);
    for (std::int64_t line = offset; line < extent; line += tile) {
      if (lines.empty() || rng.Bernoulli(0.6)) lines.push_back(line);
    }
  } else {
    for (std::int64_t line = 0; line < extent; ++line) {
      if (rng.Bernoulli(0.25)) lines.push_back(line);
    }
  }
  return lines;
}

std::set<Cell> RandomCells(Rng& rng, const ClassifyContext& context) {
  std::set<Cell> cells;
  switch (rng.UniformInt(0, 6)) {
    case 0:  // masked
      break;
    case 1:  // scattered cells
      for (std::int64_t row = 0; row < context.rows; ++row) {
        for (std::int64_t col = 0; col < context.cols; ++col) {
          if (rng.Bernoulli(0.1)) cells.insert({row, col});
        }
      }
      break;
    case 2: {  // one element, replicated at its offset in some tiles
      const std::int64_t row_offset = rng.UniformInt(
          0, std::min(context.rows, context.tile_rows) - 1);
      const std::int64_t col_offset = rng.UniformInt(
          0, std::min(context.cols, context.tile_cols) - 1);
      for (std::int64_t row = row_offset; row < context.rows;
           row += context.tile_rows) {
        for (std::int64_t col = col_offset; col < context.cols;
             col += context.tile_cols) {
          if (cells.empty() || rng.Bernoulli(0.5)) cells.insert({row, col});
        }
      }
      break;
    }
    case 3:
      AddColumns(rng, context, PickLines(rng, context.cols, context.tile_cols),
                 cells);
      break;
    case 4:
      AddRows(rng, context, PickLines(rng, context.rows, context.tile_rows),
              cells);
      break;
    case 5:  // whole columns plus a stray cell
      AddColumns(rng, context, PickLines(rng, context.cols, context.tile_cols),
                 cells);
      cells.insert({rng.UniformInt(0, context.rows - 1),
                    rng.UniformInt(0, context.cols - 1)});
      break;
    default:  // the whole output
      for (std::int64_t row = 0; row < context.rows; ++row) {
        for (std::int64_t col = 0; col < context.cols; ++col) {
          cells.insert({row, col});
        }
      }
      break;
  }
  return cells;
}

CorruptionMap ToMap(const std::set<Cell>& cells,
                    const ClassifyContext& context) {
  CorruptionMap map;
  map.rows = context.rows;
  map.cols = context.cols;
  for (const auto& [row, col] : cells) map.corrupted.push_back({row, col});
  return map;
}

TEST(ClassifyPropertyTest, GemmMatchesOracle) {
  Rng rng(20231);
  std::set<PatternClass> seen;
  for (int trial = 0; trial < 4000; ++trial) {
    const ClassifyContext context = RandomGemmContext(rng);
    const std::set<Cell> cells = RandomCells(rng, context);
    const PatternClass want = Oracle(cells, context);
    seen.insert(want);
    ASSERT_EQ(Classify(ToMap(cells, context), context), want)
        << "trial " << trial << ": " << context.rows << "x" << context.cols
        << " tiles " << context.tile_rows << "x" << context.tile_cols << ", "
        << cells.size() << " cells";
  }
  // Every GEMM-space class was drawn, so none passed vacuously.
  for (const PatternClass pattern :
       {PatternClass::kMasked, PatternClass::kSingleElement,
        PatternClass::kSingleElementMultiTile, PatternClass::kSingleRow,
        PatternClass::kSingleRowMultiTile, PatternClass::kSingleColumn,
        PatternClass::kSingleColumnMultiTile, PatternClass::kOther}) {
    EXPECT_EQ(seen.count(pattern), 1u) << ToString(pattern);
  }
}

TEST(ClassifyPropertyTest, ConvMatchesOracleUnderBothLowerings) {
  Rng rng(20232);
  for (const ConvLowering lowering :
       {ConvLowering::kIm2Col, ConvLowering::kShiftGemm}) {
    std::set<PatternClass> seen;
    for (int trial = 0; trial < 2000; ++trial) {
      const ClassifyContext context = RandomConvContext(rng, lowering);
      const std::set<Cell> cells = RandomCells(rng, context);
      const PatternClass want = Oracle(cells, context);
      seen.insert(want);
      ASSERT_EQ(Classify(ToMap(cells, context), context), want)
          << "trial " << trial << ": " << context.rows << "x" << context.cols
          << " tiles " << context.tile_rows << "x" << context.tile_cols
          << ", " << cells.size() << " cells";
    }
    EXPECT_EQ(seen.count(PatternClass::kSingleChannel), 1u);
    EXPECT_EQ(seen.count(PatternClass::kMultiChannel), 1u);
    EXPECT_EQ(seen.count(PatternClass::kOther), 1u);
  }
}

// The linear pass relies on ExtractCorruption's order; a map out of
// row-major order, or with a repeated cell, is rejected, not misclassified.
TEST(ClassifyPropertyTest, RejectsCellsOutOfRowMajorOrder) {
  ClassifyContext context;
  context.rows = context.cols = 8;
  context.tile_rows = context.tile_cols = 4;
  CorruptionMap map;
  map.rows = map.cols = 8;
  map.corrupted = {{2, 3}, {1, 3}};
  EXPECT_THROW(Classify(map, context), std::invalid_argument);
  map.corrupted = {{2, 3}, {2, 3}};
  EXPECT_THROW(Classify(map, context), std::invalid_argument);
  map.corrupted = {{2, 3}, {2, 8}};
  EXPECT_THROW(Classify(map, context), std::invalid_argument);
}

}  // namespace
}  // namespace saffire
