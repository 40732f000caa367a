// Cycle-accurate switch-level simulation of a dynamic differential gate.
//
// Timing model (matches the SPICE testbench in src/sabl):
//   evaluation : clk high, inputs complementary; every DPDN node connected
//                to {X, Y, Z} discharges (X and Y always discharge — one
//                through its branch, the other through bridge M1).
//   precharge  : clk low; during the input-overlap window the old inputs
//                are still complementary, so the same connected set
//                recharges from the supply through the precharge devices;
//                then all inputs return to 0 and disconnected (floating)
//                nodes keep whatever charge they hold.
//
// SablGateSimBatch simulates 64 independent gate instances at once (lane
// L of every 64-bit word is instance L), and the scalar SablGateSim is
// its width-1 case: a lane's result is bit-identical to a width-1 run fed
// the same assignment sequence.
//
// The header also carries the bit-matrix transposes: pack_lane_words, the
// portable lane packer the leakage-table build and the width-1 wrappers
// use, and bit_transpose_blocks, the corpus codec's tier-dispatched
// 64×64 transpose.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/network.hpp"
#include "switchsim/gate_model.hpp"
#include "util/lane_word.hpp"

namespace sable {

/// Transposes a batch of scalar assignments into lane words: lane L of
/// `words[v]` is bit v of `assignments[L]`. The simulators consume the
/// std::uint64_t form; the wider words of util/lane_word.hpp are plain
/// chunk containers, packed 64 lanes per chunk by the same body.
/// `words` must be pre-sized to the variable count (at most 64); lanes at
/// `count` and beyond are cleared. Implemented as a portable Hacker's
/// Delight 64×64 bit-matrix transpose per chunk, with a single-lane fast
/// path; its output is bit-identical to the per-bit gather at every width
/// and ragged count. Packing runs only while leakage tables are built
/// (TraceEngine construction) and in the width-1 wrappers, so it carries
/// no per-tier SIMD bodies.
template <typename W>
void pack_lane_words(const std::uint64_t* assignments, std::size_t count,
                     std::vector<W>& words);

/// Byte-source form for narrow assignments (at most 8 variables): same
/// output as the std::uint64_t form for equal values, through 8×8
/// byte-block transposes (eight lanes per load).
template <typename W>
void pack_lane_words(const std::uint8_t* values, std::size_t count,
                     std::vector<W>& words);

/// The historic per-bit gather, kept as the independently-simple
/// reference implementation: property tests and the pack_transpose bench
/// row compare the transpose against it lane for lane.
template <typename W>
void pack_lane_words_gather(const std::uint64_t* assignments,
                            std::size_t count, std::vector<W>& words);

/// In-place 64×64 bit-matrix transpose of `blocks` consecutive 64-word
/// blocks, through the widest transpose body the runtime dispatch tier
/// allows (portable Hacker's Delight, AVX2 ymm delta-swaps or AVX-512 zmm
/// masked shifts, all bit-identical). The transpose is an involution —
/// applying it twice restores the input — which is exactly what the
/// corpus codec (io/codec.hpp) needs to turn sample words into
/// RLE-friendly bit planes and back. Non-template on purpose: defined once
/// in the portable TU, whose build carries every tier's body behind
/// function-level target attributes.
void bit_transpose_blocks(std::uint64_t* words, std::size_t blocks);

/// 64 independent instances of one gate, simulated bit-parallel: per node
/// one charge word (lane L = instance L at VDD level), per cycle one
/// conduction fixpoint over lane words instead of per-lane union-finds.
class SablGateSimBatch {
 public:
  static constexpr std::size_t kLanes = 64;

  SablGateSimBatch(const DpdnNetwork& net, GateEnergyModel model);

  /// Runs one full clock cycle in every lane selected by `lane_mask`.
  /// Lane L of `var_words[v]` is the value of input v in lane L. Writes
  /// the supply energy of lane L into `energy[L]` for selected lanes only;
  /// unselected lanes keep their charge state and energy slot untouched.
  void cycle(const std::vector<std::uint64_t>& var_words,
             std::uint64_t lane_mask, double* energy);

  /// Forces every DPDN node charged (`true`) or discharged (`false`) in
  /// every lane.
  void reset(bool charged);

  /// Per-node charge words after the last cycle (lane L = lane L at VDD).
  const std::vector<std::uint64_t>& node_state_words() const {
    return charged_;
  }

  const DpdnNetwork& network() const { return net_; }
  const GateEnergyModel& model() const { return model_; }

 private:
  const DpdnNetwork& net_;
  GateEnergyModel model_;
  std::vector<std::uint64_t> charged_;
  // Per-cycle scratch, kept across calls so the hot path never allocates.
  std::vector<std::uint64_t> masks_;
  std::vector<std::uint64_t> reach_;
  std::vector<std::uint64_t> reach_xz_;  // X–Z closure for the rail extras
};

class SablGateSim {
 public:
  SablGateSim(const DpdnNetwork& net, GateEnergyModel model);

  /// Runs one full clock cycle with complementary input `assignment`.
  /// Returns the supply energy drawn during the cycle [J].
  double cycle(std::uint64_t assignment);

  /// Forces every DPDN node charged (`true`) or discharged (`false`).
  void reset(bool charged);

  /// Charge state per node after the last cycle (true = at VDD level).
  const std::vector<bool>& node_state() const { return charged_; }

  const DpdnNetwork& network() const { return batch_.network(); }
  const GateEnergyModel& model() const { return batch_.model(); }

 private:
  SablGateSimBatch batch_;  // lane 0 carries this instance
  std::vector<bool> charged_;
  std::vector<std::uint64_t> var_words_;
};

}  // namespace sable
