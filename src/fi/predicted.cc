// FiRunner::RunFaultyPredicted: the algebraic short circuit under the
// campaign layer's kPredicted rung — per-fault results bit-identical to
// RunFaultyBatch, computed in closed form instead of stepping the array.
//
// Why this is exact (the FLARE observation, PAPERS.md): a permanent
// stuck-at on one of the PE-local signals (weight operand, multiplier
// output, adder output) perturbs the datapath only at its own MAC stage,
// and every value between that stage and a tile output flows through
// nothing but width-wrapped additions. A wrapped addition propagates an
// additive delta unchanged modulo 2^acc_bits, so the faulty tile output is
// the golden output plus a delta that depends only on the fault, the
// operands, and the schedule — no cycle-accurate stepping required.
//
// Weight-stationary (including IS, which the driver lowers onto the WS
// datapath with transposed operands): output wave i of fault column c is
// the partial-sum chain g_r(i) = wrap(g_{r−1}(i) + m_r(i)) down the column,
// with m_r(i) the product-wrapped a(i,r)·w(r,c). A fault at row R turns the
// collected value g_{rows−1}(i) into wrap(g_{rows−1}(i) + d(i)) with
//   d(i) = force(g_R(i)) − g_R(i)        (adder output),
//   d(i) = force(m_R(i)) − m_R(i)        (multiplier output),
//   d(i) = wrap_p(a·force(w)) − m_R(i)   (weight operand).
// The golden chain is computed once per (tile, column) and shared by every
// fault in that column. Activations count every step the masked value
// differs from the clean one: each row sees exactly its tile's me data
// waves plus (steps − me) idle steps whose chain and product values are 0.
//
// Activation forward (kActForward) at PE (R, C): the stuck bit corrupts
// only the activation PE (R, C) registers east — its own MAC consumes the
// clean act_in — and every PE east of it in row R forwards the forced value
// unchanged, so column C and everything west of it stay golden. An east
// column j > C meets the forced activation only in its row-R product:
//   WS: collected wave i of column j becomes wrap(g_j(i) + d_j(i)) with
//       d_j(i) = wrap_p(force(a(i,R))·w(R,j)) − wrap_p(a(i,R)·w(R,j));
//   OS: only accumulator (R, j) changes, and it drains
//       wrap(Σ_kk wrap_p(force(a(R,kk))·b(kk,j))) — for R < me only.
// Forced products at idle steps either meet a zero weight (OS) or join
// partial sums that are never collected (WS). Neither formula depends on
// C, so the faults sharing a row and a forcing share one set of faulty
// columns per (mi, ni) block, and each copies out the columns east of its
// own. Activations count every step at which the forced value differs from
// act_in = (t ≥ C ? west stimulus of step t − C : 0): the C pre-stream
// steps plus the row's whole west stimulus, idle waves included.
//
// Output-stationary: the fault corrupts only the in-place accumulator of
// PE (R, c), whose per-step inputs are known analytically (the west value
// a(R, kk) and the north weight b(kk, c) meet at step t = kk + R + c), so
// one O(steps) scalar recurrence per (fault, tile) reproduces the drained
// value and the per-step activation count exactly — including the idle
// steps, where a stuck adder keeps re-forcing the accumulator.
//
// Per-(mi, ni) outputs accumulate across reduction tiles with the same
// uint32 wrap-add as AccumulatorMem::WriteBlock, mirroring fi/batch.cc.
#include <algorithm>
#include <vector>

#include "common/check.h"
#include "fi/cone.h"
#include "fi/runner.h"
#include "obs/trace.h"
#include "systolic/timing.h"
#include "tensor/tiling.h"
#include "tensor/transpose.h"

namespace saffire {
namespace {

// SignExtend without the width checks (see lane_grid.cc): `shift` is
// 64 − width for a validated ArrayConfig width.
inline std::int64_t SxWide(std::int64_t value, int shift) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(value)
                                   << shift) >>
         shift;
}

Dataflow LoweredDataflow(Dataflow dataflow) {
  return dataflow == Dataflow::kOutputStationary
             ? Dataflow::kOutputStationary
             : Dataflow::kWeightStationary;
}

// One fault's stuck-at masking, pre-lowered exactly like the lane kernel's
// LaneFaultParams: force(v) = SxWide((v & and) | or, 64 − signal width).
struct ForceSpec {
  std::int64_t and_mask = -1;
  std::int64_t or_mask = 0;
  int sx_shift = 0;

  std::int64_t operator()(std::int64_t v) const {
    return SxWide((v & and_mask) | or_mask, sx_shift);
  }
};

// The kActForward faults of one fault row and one forcing: they differ only
// in the column where the corruption starts, so their faulty columns are
// computed once, for every column east of the westmost member.
struct ActForwardRow {
  std::int64_t row = 0;
  ForceSpec force;
  std::int64_t lo = 0;  // westmost member column; columns j > lo are tracked
  // Per column tile: where the group's line of column lo + 1 starts in the
  // pool; column j < ne follows at (j − lo − 1) line lengths further.
  std::vector<std::size_t> tile_line0;
  // Per tile: mismatch[s] counts the stimulus steps s' < s of this row at
  // which force(x) != x.
  std::vector<std::uint64_t> mismatch;
};

// Folds one tile's faulty collected value (golden chain output + delta,
// re-wrapped at acc width) into the per-(mi, ni) accumulation cell with the
// same uint32 wrap-add as AccumulatorMem::WriteBlock / fi/batch.cc.
inline std::int32_t Accumulate(std::int32_t cell, std::int64_t faulty_wide,
                               std::int64_t ki, int sx_acc) {
  const auto value = static_cast<std::int32_t>(SxWide(faulty_wide, sx_acc));
  return ki > 0 ? static_cast<std::int32_t>(static_cast<std::uint32_t>(cell) +
                                            static_cast<std::uint32_t>(value))
                : value;
}

}  // namespace

std::vector<ConeResult> FiRunner::RunFaultyPredicted(
    const WorkloadSpec& workload, Dataflow dataflow,
    std::span<const FaultSpec> faults, const GoldenTrace& trace,
    const RunResult& golden) {
  SAFFIRE_CHECK_MSG(!faults.empty(), "at least one fault required");
  const AccelConfig& config = accel_.config();
  const ArrayConfig& array = config.array;
  SAFFIRE_CHECK_MSG(trace.rows() == array.rows && trace.cols() == array.cols,
                    "trace recorded on " << trace.rows() << "x"
                                         << trace.cols());

  const Dataflow lowered = LoweredDataflow(dataflow);
  const bool ws = lowered == Dataflow::kWeightStationary;
  const bool transposed = dataflow == Dataflow::kInputStationary;

  const MaterializedWorkload operands = Materialize(workload);
  const Int8Tensor a = transposed ? Transpose(operands.b) : operands.a;
  const Int8Tensor b = transposed ? Transpose(operands.a) : operands.b;
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = b.dim(1);
  const TileGrid grid = Driver::PlanTiles(m, n, k, config, lowered);
  SAFFIRE_CHECK_MSG(
      trace.checkpoints() == grid.total_tiles() + 1,
      "trace has " << trace.checkpoints() << " checkpoints for "
                   << grid.total_tiles()
                   << " tiles — workload/dataflow mismatch");
  SAFFIRE_CHECK_MSG(golden.output.rank() == 2 &&
                        golden.output.dim(0) == (transposed ? n : m) &&
                        golden.output.dim(1) == (transposed ? m : n),
                    "golden output " << golden.output.ShapeString());

  // Lower each fault, rejecting anything outside the provably-exact set.
  std::vector<ForceSpec> forces(faults.size());
  std::vector<std::uint64_t> activations(faults.size(), 0);
  std::vector<std::int32_t> cone_width(faults.size(), 1);
  // kActForward faults, grouped by (row, forcing); act_row_of[l] indexes
  // act_rows for those faults.
  std::vector<ActForwardRow> act_rows;
  std::vector<std::size_t> act_row_of(faults.size(), 0);
  for (std::size_t l = 0; l < faults.size(); ++l) {
    const FaultSpec& fault = faults[l];
    fault.Validate(array);
    SAFFIRE_CHECK_MSG(fault.kind == FaultKind::kStuckAt,
                      "predicted engine covers permanent stuck-at faults "
                      "only; transient faults are batch residue");
    const bool act_forward = fault.signal == MacSignal::kActForward;
    SAFFIRE_CHECK_MSG(fault.signal == MacSignal::kWeightOperand ||
                          fault.signal == MacSignal::kMulOut ||
                          fault.signal == MacSignal::kAdderOut || act_forward,
                      "predicted engine covers PE-local signals and "
                      "act_forward only, got "
                          << ToString(fault.signal));
    const ColumnCone cone =
        FaultCone(std::span<const FaultSpec>(&fault, 1), lowered, array);
    SAFFIRE_CHECK_MSG(
        cone.lo == fault.pe.col &&
            cone.hi == (act_forward ? array.cols - 1 : fault.pe.col),
        "fault must cone to its own column (and east of it for "
        "act_forward)");
    cone_width[l] = cone.width();
    const std::int64_t bit = std::int64_t{1} << fault.bit;
    if (fault.polarity == StuckPolarity::kStuckAt0) {
      forces[l].and_mask = ~bit;
    } else {
      forces[l].or_mask = bit;
    }
    forces[l].sx_shift = 64 - SignalWidth(fault.signal, array);
    if (!act_forward) continue;
    const auto same_row = [&](const ActForwardRow& group) {
      return group.row == fault.pe.row &&
             group.force.and_mask == forces[l].and_mask &&
             group.force.or_mask == forces[l].or_mask;
    };
    auto it = std::find_if(act_rows.begin(), act_rows.end(), same_row);
    if (it == act_rows.end()) {
      act_rows.push_back({fault.pe.row, forces[l], fault.pe.col, {}, {}});
      it = act_rows.end() - 1;
    }
    it->lo = std::min<std::int64_t>(it->lo, fault.pe.col);
    act_row_of[l] = static_cast<std::size_t>(it - act_rows.begin());
  }

  // Cone-sparse results over one shared pool of lines, each holding all m
  // rows of one column of one column tile, accumulated across reduction
  // tiles in place. A PE-local fault owns its own column's line in every
  // tile it fits (tile_line0[l · n_tiles + ni]); an act_forward group owns
  // the lines east of its westmost member, and each member reports the
  // suffix east of its own column. Output-stationary faults rewrite one
  // row of each line per tile, so every line starts as the golden column.
  const auto n_tiles = static_cast<std::size_t>(grid.n_tiles());
  const auto line_len = static_cast<std::size_t>(m);
  std::vector<OutputLine> pool_lines;
  const auto add_line = [&](std::int64_t index) {
    pool_lines.push_back({index, pool_lines.size() * line_len});
    return pool_lines.back();
  };
  std::vector<ConeResult> results(faults.size());
  std::vector<std::size_t> tile_line0(faults.size() * n_tiles, 0);
  for (std::size_t l = 0; l < faults.size(); ++l) {
    results[l].lines_are_rows = transposed;
    results[l].cycles = golden.cycles;
    if (faults[l].signal == MacSignal::kActForward) continue;
    for (std::size_t ni = 0; ni < n_tiles; ++ni) {
      const auto tile = static_cast<std::int64_t>(ni);
      if (faults[l].pe.col >= grid.TileCols(tile)) continue;
      results[l].lines.push_back(
          add_line(grid.ColStart(tile) + faults[l].pe.col));
      tile_line0[l * n_tiles + ni] = results[l].lines.back().offset;
    }
  }
  for (ActForwardRow& group : act_rows) {
    group.tile_line0.resize(n_tiles);
    for (std::size_t ni = 0; ni < n_tiles; ++ni) {
      const auto tile = static_cast<std::int64_t>(ni);
      group.tile_line0[ni] = pool_lines.size() * line_len;
      for (std::int64_t j = group.lo + 1; j < grid.TileCols(tile); ++j) {
        add_line(grid.ColStart(tile) + j);
      }
    }
  }
  for (std::size_t l = 0; l < faults.size(); ++l) {
    if (faults[l].signal != MacSignal::kActForward) continue;
    const ActForwardRow& group = act_rows[act_row_of[l]];
    for (std::size_t ni = 0; ni < n_tiles; ++ni) {
      const auto tile = static_cast<std::int64_t>(ni);
      for (std::int64_t j = faults[l].pe.col + 1; j < grid.TileCols(tile);
           ++j) {
        results[l].lines.push_back(
            {grid.ColStart(tile) + j,
             group.tile_line0[ni] +
                 static_cast<std::size_t>(j - group.lo - 1) * line_len});
      }
    }
  }
  auto pool =
      std::make_shared<std::vector<std::int32_t>>(pool_lines.size() * line_len);
  if (!ws) {
    // Every line is a GEMM column here (OS is never transposed).
    for (const OutputLine& line : pool_lines) {
      for (std::int64_t r = 0; r < m; ++r) {
        (*pool)[line.offset + static_cast<std::size_t>(r)] =
            golden.output(r, line.index);
      }
    }
  }
  // The first cell of block (mi, ni), row m0, on a PE-local fault's line in
  // column tile ni, or on a group's line of column j there.
  const auto local_line = [&](std::size_t l, std::int64_t ni,
                              std::int64_t m0) {
    return pool->data() +
           tile_line0[l * n_tiles + static_cast<std::size_t>(ni)] +
           static_cast<std::size_t>(m0);
  };
  const auto group_line = [&](const ActForwardRow& group, std::int64_t ni,
                              std::int64_t j, std::int64_t m0) {
    return pool->data() + group.tile_line0[static_cast<std::size_t>(ni)] +
           static_cast<std::size_t>(j - group.lo - 1) * line_len +
           static_cast<std::size_t>(m0);
  };

  SAFFIRE_SPAN("fi.predict.closed_form");
  const int sx_in = 64 - array.input_bits;
  const int sx_prod = 64 - array.product_bits();
  const int sx_acc = 64 - array.acc_bits;
  const auto rows = static_cast<std::int64_t>(array.rows);

  std::int64_t step0 = 0;
  std::int64_t tile_index = 0;
  // Where a WS fault outside the column tile accumulates: its activations
  // still count, but it has no line there.
  std::vector<std::int32_t> discard;
  // Per-tile golden partial-sum chains, one per fault column, shared by
  // every fault in that column (g[r * me + i]); rebuilt lazily per tile.
  std::vector<std::vector<std::int64_t>> col_chain(
      static_cast<std::size_t>(array.cols));
  // One kActForward group's clean and forced row-R activations per tile,
  // indexed by wave (WS) or reduction step (OS).
  std::vector<std::int64_t> row_act;
  std::vector<std::int64_t> row_forced;

  for (std::int64_t mi = 0; mi < grid.m_tiles(); ++mi) {
    const std::int64_t m0 = grid.RowStart(mi);
    const std::int64_t me = grid.TileRows(mi);
    for (std::int64_t ni = 0; ni < grid.n_tiles(); ++ni) {
      const std::int64_t n0 = grid.ColStart(ni);
      const std::int64_t ne = grid.TileCols(ni);
      discard.resize(static_cast<std::size_t>(me));
      for (std::int64_t ki = 0; ki < grid.k_tiles(); ++ki) {
        const std::int64_t k0 = grid.DepthStart(ki);
        const std::int64_t ke = grid.TileDepth(ki);
        SAFFIRE_CHECK_MSG(trace.StepsAtCheckpoint(tile_index) == step0,
                          "tile " << tile_index << " starts at step "
                                  << trace.StepsAtCheckpoint(tile_index)
                                  << ", replay expected " << step0);
        const std::int64_t steps =
            ws ? WeightStationaryStreamCycles(me, array)
               : OutputStationaryStreamCycles(ke, array);
        SAFFIRE_CHECK_MSG(step0 + steps <= trace.steps(),
                          "replay overruns the recorded run");
        const Int8Tensor a_blk = ExtractTilePadded(a, m0, k0, me, ke, me, ke);
        const Int8Tensor b_blk = ExtractTilePadded(b, k0, n0, ke, ne, ke, ne);

        // The golden chain of column c, built on first use per tile and
        // shared by every fault that reads it.
        for (auto& chain : col_chain) chain.clear();
        const auto golden_chain = [&](std::int64_t c) {
          std::vector<std::int64_t>& chain =
              col_chain[static_cast<std::size_t>(c)];
          if (chain.empty()) {
            chain.assign(static_cast<std::size_t>(rows * me), 0);
            for (std::int64_t i = 0; i < me; ++i) {
              std::int64_t g = 0;
              for (std::int64_t r = 0; r < rows; ++r) {
                if (r < ke) {
                  const std::int64_t w_rc =
                      (c < ne) ? SxWide(b_blk(r, c), sx_in) : 0;
                  const std::int64_t mul = SxWide(
                      SxWide(a_blk(i, r), sx_in) * w_rc, sx_prod);
                  g = SxWide(g + mul, sx_acc);
                }
                chain[static_cast<std::size_t>(r * me + i)] = g;
              }
            }
          }
          return chain.data();
        };

        if (ws) {
          for (std::size_t l = 0; l < faults.size(); ++l) {
            const FaultSpec& fault = faults[l];
            if (fault.signal == MacSignal::kActForward) continue;
            const ForceSpec& force = forces[l];
            const std::int64_t c = fault.pe.col;
            const std::int64_t rf = fault.pe.row;
            // Preloaded weight of the fault PE (0 outside the ke×ne block,
            // exactly like the scheduler's cleared preload).
            const std::int64_t w_val =
                (rf < ke && c < ne)
                    ? SxWide(b_blk(rf, c), sx_in)
                    : 0;
            const std::int64_t* chain = golden_chain(c);
            const std::int64_t* g_fault =
                chain + static_cast<std::size_t>(rf * me);
            const std::int64_t* g_out =
                chain + static_cast<std::size_t>((rows - 1) * me);

            std::int32_t* cell =
                c < ne ? local_line(l, ni, m0) : discard.data();
            std::uint64_t activ = 0;
            switch (fault.signal) {
              case MacSignal::kWeightOperand: {
                const std::int64_t w_forced = force(w_val);
                // The weight operand is consumed every step, data or idle.
                activ += static_cast<std::uint64_t>(steps) *
                         static_cast<std::uint64_t>(w_forced != w_val);
                for (std::int64_t i = 0; i < me; ++i) {
                  const std::int64_t a_in =
                      rf < ke ? SxWide(a_blk(i, rf), sx_in) : 0;
                  const std::int64_t d =
                      SxWide(a_in * w_forced, sx_prod) -
                      SxWide(a_in * w_val, sx_prod);
                  cell[i] = Accumulate(cell[i], g_out[i] + d, ki, sx_acc);
                }
                break;
              }
              case MacSignal::kMulOut: {
                const std::int64_t idle_forced = force(0);
                activ += static_cast<std::uint64_t>(steps - me) *
                         static_cast<std::uint64_t>(idle_forced != 0);
                for (std::int64_t i = 0; i < me; ++i) {
                  const std::int64_t a_in =
                      rf < ke ? SxWide(a_blk(i, rf), sx_in) : 0;
                  const std::int64_t mul = SxWide(a_in * w_val, sx_prod);
                  const std::int64_t forced = force(mul);
                  activ += static_cast<std::uint64_t>(forced != mul);
                  cell[i] =
                      Accumulate(cell[i], g_out[i] + (forced - mul), ki,
                                 sx_acc);
                }
                break;
              }
              default: {  // kAdderOut (the lowering loop rejected the rest)
                const std::int64_t idle_forced = force(0);
                activ += static_cast<std::uint64_t>(steps - me) *
                         static_cast<std::uint64_t>(idle_forced != 0);
                for (std::int64_t i = 0; i < me; ++i) {
                  const std::int64_t g = g_fault[i];
                  const std::int64_t forced = force(g);
                  activ += static_cast<std::uint64_t>(forced != g);
                  cell[i] =
                      Accumulate(cell[i], g_out[i] + (forced - g), ki,
                                 sx_acc);
                }
                break;
              }
            }
            activations[l] += activ;
          }
        } else {
          for (std::size_t l = 0; l < faults.size(); ++l) {
            const FaultSpec& fault = faults[l];
            if (fault.signal == MacSignal::kActForward) continue;
            const ForceSpec& force = forces[l];
            const std::int64_t c = fault.pe.col;
            const std::int64_t rf = fault.pe.row;
            const bool in_col = c < ne;
            std::uint64_t activ = 0;
            std::int64_t acc = 0;
            for (std::int64_t t = 0; t < steps; ++t) {
              const std::int64_t kk = t - rf - c;
              const bool valid = kk >= 0 && kk < ke;
              const std::int64_t a_in =
                  (rf < me && valid)
                      ? SxWide(a_blk(rf, kk), sx_in)
                      : 0;
              std::int64_t wop =
                  (in_col && valid) ? SxWide(b_blk(kk, c), sx_in)
                                    : 0;
              if (fault.signal == MacSignal::kWeightOperand) {
                const std::int64_t forced = force(wop);
                activ += static_cast<std::uint64_t>(forced != wop);
                wop = forced;
              }
              std::int64_t mul = SxWide(a_in * wop, sx_prod);
              if (fault.signal == MacSignal::kMulOut) {
                const std::int64_t forced = force(mul);
                activ += static_cast<std::uint64_t>(forced != mul);
                mul = forced;
              }
              std::int64_t adder = SxWide(acc + mul, sx_acc);
              if (fault.signal == MacSignal::kAdderOut) {
                const std::int64_t forced = force(adder);
                activ += static_cast<std::uint64_t>(forced != adder);
                adder = forced;
              }
              acc = adder;
            }
            activations[l] += activ;
            if (rf < me && in_col) {
              std::int32_t& cell = local_line(l, ni, m0)[rf];
              const auto value = static_cast<std::int32_t>(acc);
              cell = ki > 0 ? static_cast<std::int32_t>(
                                  static_cast<std::uint32_t>(cell) +
                                  static_cast<std::uint32_t>(value))
                            : value;
            }
          }
        }

        // kActForward: each (row, forcing) group's faulty east columns.
        for (ActForwardRow& group : act_rows) {
          const std::int64_t rf = group.row;
          // Row rf's west stimulus is row_act[s − rf] at stream step s for
          // s − rf < len, and 0 elsewhere — exactly as the schedulers gate
          // it (lane_grid.cc), including the zero rows past the tile.
          const std::int64_t len = ws ? me : ke;
          const bool live_row = ws ? rf < ke : rf < me;
          row_act.resize(static_cast<std::size_t>(len));
          row_forced.resize(static_cast<std::size_t>(len));
          for (std::int64_t x = 0; x < len; ++x) {
            const std::int64_t a_in =
                live_row ? SxWide(ws ? a_blk(x, rf) : a_blk(rf, x), sx_in)
                         : 0;
            row_act[static_cast<std::size_t>(x)] = a_in;
            row_forced[static_cast<std::size_t>(x)] = group.force(a_in);
          }
          const auto zero_mismatch =
              static_cast<std::uint64_t>(group.force(0) != 0);
          group.mismatch.assign(static_cast<std::size_t>(steps) + 1, 0);
          for (std::int64_t s = 0; s < steps; ++s) {
            const std::int64_t x = s - rf;
            const std::uint64_t mismatch =
                x >= 0 && x < len
                    ? static_cast<std::uint64_t>(
                          row_forced[static_cast<std::size_t>(x)] !=
                          row_act[static_cast<std::size_t>(x)])
                    : zero_mismatch;
            group.mismatch[static_cast<std::size_t>(s) + 1] =
                group.mismatch[static_cast<std::size_t>(s)] + mismatch;
          }
          if (ws) {
            for (std::int64_t j = group.lo + 1; j < ne; ++j) {
              const std::int64_t w = rf < ke ? SxWide(b_blk(rf, j), sx_in) : 0;
              const std::int64_t* g_out =
                  golden_chain(j) + static_cast<std::size_t>((rows - 1) * me);
              std::int32_t* cell = group_line(group, ni, j, m0);
              for (std::int64_t i = 0; i < me; ++i) {
                const auto x = static_cast<std::size_t>(i);
                const std::int64_t d = SxWide(row_forced[x] * w, sx_prod) -
                                       SxWide(row_act[x] * w, sx_prod);
                cell[i] = Accumulate(cell[i], g_out[i] + d, ki, sx_acc);
              }
            }
          } else if (live_row) {
            for (std::int64_t j = group.lo + 1; j < ne; ++j) {
              std::int64_t acc = 0;
              for (std::int64_t kk = 0; kk < ke; ++kk) {
                const std::int64_t w = SxWide(b_blk(kk, j), sx_in);
                acc = SxWide(
                    acc + SxWide(row_forced[static_cast<std::size_t>(kk)] * w,
                                 sx_prod),
                    sx_acc);
              }
              std::int32_t& cell = group_line(group, ni, j, m0)[rf];
              cell = Accumulate(cell, acc, ki, sx_acc);
            }
          }
        }
        for (std::size_t l = 0; l < faults.size(); ++l) {
          if (faults[l].signal != MacSignal::kActForward) continue;
          // act_in is 0 for the C steps before the stream reaches column C,
          // then the west stimulus of step t − C.
          const ActForwardRow& group = act_rows[act_row_of[l]];
          const std::int64_t c = faults[l].pe.col;
          activations[l] +=
              static_cast<std::uint64_t>(c) *
                  static_cast<std::uint64_t>(group.force(0) != 0) +
              group.mismatch[static_cast<std::size_t>(steps - c)];
        }

        step0 += steps;
        ++tile_index;
      }
    }
  }
  SAFFIRE_CHECK_MSG(step0 == trace.steps() &&
                        trace.StepsAtCheckpoint(grid.total_tiles()) == step0,
                    "closed form covered " << step0 << " of "
                                           << trace.steps()
                                           << " recorded steps");

  // The batch engine's counter split, reproduced exactly: every recorded
  // Step evaluates rows × cone-width PEs and skips the rest.
  const auto num_pes = static_cast<std::uint64_t>(array.num_pes());
  const auto total_steps = static_cast<std::uint64_t>(trace.steps());
  for (std::size_t l = 0; l < results.size(); ++l) {
    const auto active = static_cast<std::uint64_t>(array.rows) *
                        static_cast<std::uint64_t>(cone_width[l]);
    results[l].pe_steps = total_steps * active;
    results[l].pe_steps_skipped = total_steps * (num_pes - active);
    results[l].fault_activations = activations[l];
    results[l].values = pool;
  }
  return results;
}

}  // namespace saffire
