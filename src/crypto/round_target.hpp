// Width-generic round targets: N S-box instances synthesized side by side
// in one logic style, consuming a wide plaintext state XOR a wide round
// key and emitting the *summed* per-cycle power across all instances.
//
// This is the paper's real threat model: the attacked S-box of a cipher
// round sits beside its neighbours, whose data-dependent switching acts as
// algorithmic noise on the shared supply. A RoundTarget generalizes the
// single-S-box target — an attack selects one instance (one subkey) while
// every other instance contributes realistic noise.
//
// State layout: the wide plaintext / round key is a byte span of
// state_bytes() bytes. Instance i's input sub-word occupies state bits
// [bit_offset(i), bit_offset(i) + in_bits_i), packed LSB-first in instance
// order — so sixteen 4-bit PRESENT S-boxes nibble-pack into 8 bytes, and
// sixteen AES S-boxes byte-pack into 16. Heterogeneous specs (mixed
// widths) pack the same way.
//
// Encryptions read tabulated leakage (crypto/leakage_table.hpp): at
// construction every instance gets the exact per-input cycle energies of
// its circuit, computed once by the switch-level batch simulators, and
// trace(), trace_batch() and trace_batch_sampled() sum table rows instead
// of re-simulating — bit-identical to direct simulation. The simulators
// only build tables and serve as the test oracle. Identical (spec, style)
// instances share one synthesized circuit and one table (WDDL instances
// keep one table each: every instance has its own rail-imbalance seed);
// clones share the tables too.
//
// Both batch calls run one body (round_target.cpp), several traces side
// by side. At construction every instance gets a window: the 8 state
// bytes, read as one little-endian word, that hold its whole sub-word —
// the previous instance's window if the sub-word fits in it, else one
// from the sub-word's own first byte — so no sub-word spans two reads:
// sixteen PRESENT nibbles share one window, sixteen AES bytes two. Each
// call plans runs of consecutive instances that share a window; per trace
// and run the window of state XOR key is read once into a register, and
// each sub-word is one shift and mask of it. The instances' table rows
// are summed in instance order from 0.0, the summation order of direct
// simulation, into an accumulator row of compile-time width held in
// registers (two levels per vector add), with several traces in flight so
// their add chains overlap; each output row is written once. Rows wider
// than 12 levels (AES's 20) are summed in passes of near-equal width.
// Noise is added afterwards in trace-major, level-minor order by
// Rng::add_gaussian_noise, the same draws as one gaussian() per sample.
//
// The only mutable state is static CMOS's transition history. Trace t of
// a call runs in logical lane t % 64 (the simulators' 64-lane layout), and
// its row depends on the input that lane held last: for t >= 64 that is
// trace t - 64 of the same call, read again from the plaintexts. Only the
// first 64 traces of a call read the history the target keeps — each
// lane's last packed input, and whether it holds one at all — and each
// call leaves its last 64 inputs there. So chained calls, reset_state()
// and scalar trace() (lane 0) behave exactly as the simulators did, for
// scalar and time-resolved rows alike.
//
// Every RoundTargetT<W> is the same RoundTargetBase: W selects no code.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "cell/circuit.hpp"
#include "crypto/leakage_table.hpp"
#include "crypto/sboxes.hpp"
#include "tech/technology.hpp"
#include "util/lane_word.hpp"
#include "util/rng.hpp"

namespace sable {

enum class LogicStyle {
  kStaticCmos,        // HD-leaking baseline
  kSablGenuine,       // dynamic differential with genuine DPDNs (§2 leak)
  kSablFullyConnected,  // §4 networks
  kSablEnhanced,      // §5 networks
  kWddlBalanced,      // standard-cell pair logic, ideal back-end (ref [8])
  kWddlMismatched,    // WDDL with 5% rail-capacitance imbalance
};

const char* to_string(LogicStyle style);

/// Where one instance's sub-word sits in a packed state, as a byte window:
/// a 1–8-bit sub-word at bit `offset` spans at most the two adjacent bytes
/// from `byte`, so one shift and mask reads or writes it in every layout.
/// The second byte is touched only when the sub-word straddles into it
/// (shift + bits > 8, so that byte holds its last bit): no access leaves
/// the sub-word's own span.
struct SubWordField {
  /// Throws InvalidArgument unless 1 <= bits <= 8.
  SubWordField(std::size_t offset, std::size_t bits);

  std::uint32_t read(const std::uint8_t* state) const {
    const std::uint8_t* b = state + byte;
    std::uint32_t window = b[0];
    if (straddles) window |= std::uint32_t{b[1]} << 8;
    return (window >> shift) & mask;
  }
  /// XORs `bits` (< 2^width) into the sub-word; other bits keep. Into a
  /// zeroed sub-word this stores `bits`; flipping read() ^ value stores
  /// `value` over any old one.
  void flip(std::uint8_t* state, std::uint32_t bits) const {
    std::uint8_t* b = state + byte;
    const std::uint32_t placed = bits << shift;
    b[0] ^= static_cast<std::uint8_t>(placed);
    if (straddles) b[1] ^= static_cast<std::uint8_t>(placed >> 8);
  }

  std::size_t byte;    // offset >> 3
  unsigned shift;      // offset & 7
  std::uint32_t mask;  // 2^bits - 1
  bool straddles;      // shift + bits > 8
};

/// Where one instance's sub-word sits in the round kernel's window plan:
/// the 8 state bytes from `byte`, read as one little-endian word
/// (load_le64), hold it from bit `shift`.
struct SubWordWindow {
  std::uint32_t byte = 0;
  std::uint32_t shift = 0;
};

/// The host is little-endian (as io/serial.cpp also asserts), so a packed
/// state's bytes read as little-endian words in place.
static_assert(std::endian::native == std::endian::little,
              "packed states are read as little-endian words");
/// The 8 bytes from `bytes` as one little-endian word.
inline std::uint64_t load_le64(const std::uint8_t* bytes) {
  std::uint64_t word = 0;
  std::memcpy(&word, bytes, sizeof word);
  return word;
}
/// load_le64 of the bytes in [bytes, end), zero past `end`: a window read
/// that stays inside a buffer ending at `end`.
inline std::uint64_t load_le64_before(const std::uint8_t* bytes,
                                      const std::uint8_t* end) {
  std::uint64_t word = 0;
  const auto available = static_cast<std::size_t>(end - bytes);
  std::memcpy(&word, bytes, std::min(sizeof word, available));
  return word;
}

/// A round's nonlinear layer: the S-box instances (possibly heterogeneous,
/// each 1–8 input bits) and the logic style they are all implemented in.
struct RoundSpec {
  std::vector<SboxSpec> sboxes;
  LogicStyle style = LogicStyle::kStaticCmos;

  std::size_t num_sboxes() const { return sboxes.size(); }
  /// Total input width of the round (sum of per-instance in_bits).
  std::size_t state_bits() const;
  /// Bytes of a packed plaintext/round-key state: ceil(state_bits / 8).
  std::size_t state_bytes() const { return (state_bits() + 7) / 8; }
  /// First state bit of instance `index`'s input sub-word.
  std::size_t bit_offset(std::size_t index) const;

  /// Instance `index`'s input sub-word of a packed state.
  std::size_t sub_word(const std::uint8_t* state, std::size_t index) const;
  /// Writes instance `index`'s input sub-word into a packed state.
  void set_sub_word(std::uint8_t* state, std::size_t index,
                    std::size_t value) const;
  /// Batch extraction: out[t] = sub_word(states + t * state_bytes(), index)
  /// for `count` packed states — the per-trace sub-plaintexts an attack on
  /// instance `index` consumes.
  void sub_words(const std::uint8_t* states, std::size_t count,
                 std::size_t index, std::uint8_t* out) const;
  /// The window plan (see the header comment), one window per instance:
  /// an instance reads the previous instance's window if its bits fit in
  /// it — with `room_above`, also the in_bits above them — else the
  /// window from its own first byte. Sixteen PRESENT nibbles share one
  /// window, sixteen AES bytes two. Throws InvalidArgument for a width
  /// outside 1..8.
  std::vector<SubWordWindow> sub_word_windows(bool room_above) const;
  /// Packs one subkey per instance into a round-key byte vector.
  std::vector<std::uint8_t> pack_subkeys(
      const std::vector<std::size_t>& subkeys) const;
  /// Fills `count` packed states (count * state_bytes() bytes) with
  /// uniform random sub-words — the campaign plaintext stream primitive.
  /// Every sub-word bound is a power of two and the fields tile the state
  /// from bit 0, so a uniform state is uniform bits: per state, each whole
  /// 64-bit chunk of its state_bits() is one next() stored little-endian,
  /// and a final chunk of r < 64 bits is next() >> (64 - r). A 16-nibble
  /// PRESENT round takes one draw per trace, 16 AES bytes take two, and a
  /// single S-box of b bits takes below(2^b), draw for draw. Throws
  /// InvalidArgument for a width outside 1..8.
  void fill_random_states(Rng& rng, std::size_t count,
                          std::uint8_t* states) const;
};

/// FNV-1a hash of a round's FUNCTIONAL identity: logic style plus every
/// instance's in_bits/out_bits/table (names excluded — renaming an S-box
/// does not change the traces it generates). Persistence artifacts
/// (recorded corpora, campaign state files; see src/io/) stamp this hash
/// into their manifests so a corpus recorded against one round can never
/// be silently replayed against a different one.
std::uint64_t round_spec_hash(const RoundSpec& round);

/// The N = 1 round of a single S-box: `RoundTarget(single_sbox_round(spec,
/// style), tech)` is the single-S-box DPA target, fed `&pt` and `&key`.
RoundSpec single_sbox_round(const SboxSpec& spec, LogicStyle style);
/// `num_sboxes` PRESENT S-boxes side by side (nibble-packed state) — the
/// full 16-instance nonlinear layer of PRESENT at num_sboxes = 16.
RoundSpec present_round(std::size_t num_sboxes, LogicStyle style);
/// `num_sboxes` AES S-boxes side by side (byte-packed state) — the AES
/// SubBytes layer at num_sboxes = 16.
RoundSpec aes_subbytes_round(std::size_t num_sboxes, LogicStyle style);

/// The round target's lookup body: S-box instances over shared leakage
/// tables (see the header comment).
class RoundTargetBase {
 public:
  /// Synthesizes every instance's circuit in round.style (identical specs
  /// share one) and tabulates their leakage.
  RoundTargetBase(const RoundSpec& round, const Technology& tech);

  /// One encryption of the whole round: applies pt XOR key per instance
  /// (both `state_bytes()` packed bytes) and returns the summed power
  /// sample plus Gaussian noise of `noise_sigma` joules.
  double trace(const std::uint8_t* pt, const std::uint8_t* key,
               double noise_sigma, Rng& rng);

  /// Batched encryptions: `pts` holds `count` packed states of
  /// `state_bytes()` bytes each; writes one summed power sample per state
  /// into `out[0..count)`. Noise is drawn from `rng` in ascending trace
  /// order.
  void trace_batch(const std::uint8_t* pts, std::size_t count,
                   const std::uint8_t* key, double noise_sigma, Rng& rng,
                   double* out);

  /// Time-resolved variant: writes `count` rows of `num_levels()` summed
  /// per-logic-level energies (row-major) into `rows`; gates at the same
  /// topological depth across all instances switch together. Per-sample
  /// Gaussian noise is drawn in trace-major, level-minor order. Covers
  /// every logic style (differential, static CMOS, WDDL).
  void trace_batch_sampled(const std::uint8_t* pts, std::size_t count,
                           const std::uint8_t* key, double noise_sigma,
                           Rng& rng, double* rows);

  /// Restores the fresh-construction state: clears every instance's
  /// static CMOS transition history (the other styles carry none).
  void reset_state();

  /// Reference output of instance `index` for functional checks.
  std::uint8_t reference(std::size_t index, const std::uint8_t* pt,
                         const std::uint8_t* key) const;

  const RoundSpec& round() const { return round_; }
  const GateCircuit& circuit(std::size_t index) const;
  /// Samples per trace_batch_sampled row: the maximum logic depth over
  /// the instances (every style is time-resolvable).
  std::size_t num_levels() const { return num_levels_; }

  /// Instance `index`'s tabulated leakage (read-only; shared with every
  /// identical instance and every clone).
  const LeakageTable& leakage_table(std::size_t index) const;

 private:
  // One instance as the kernel reads it: where its sub-word sits in its
  // window (8 state bytes read as one little-endian word), and the table
  // rows the current pass sums.
  struct Lookup {
    const double* rows = nullptr;       // the pass's first level of row 0
    const double* pair_rows = nullptr;  // ... of row(0, 0), with history
    std::uint64_t mask = 0;             // 2^in_bits - 1
    std::uint32_t window = 0;           // the window's first state byte
    std::uint32_t shift = 0;            // the sub-word's low bit in it
    std::uint32_t bits = 0;             // in_bits
    std::uint32_t levels = 0;           // doubles per table row
  };
  // The current pass's plan: consecutive instances that share a window
  // and an input width and add the same number of levels, in instance
  // order.
  struct Run {
    std::uint64_t key = 0;     // the round key's window
    std::uint32_t window = 0;  // the window's first state byte
    std::uint32_t bits = 0;    // every instance's in_bits
    std::uint32_t begin = 0;   // instances [begin, end)
    std::uint32_t end = 0;
    std::uint32_t levels = 0;  // levels each adds: the pass width or fewer
  };
  // One pass of a batch: levels [lo, lo + pass width) of every row.
  struct Pass {
    const std::uint8_t* pts;
    std::size_t count;
    std::size_t direct;  // traces whose windows all lie inside pts
    std::size_t width;   // doubles per output row
    std::size_t lo;
    double* out;
  };

  // Sums every trace's instance rows into out[t * width, (t + 1) * width)
  // (width 1, or num_levels() if `sampled`), in passes of at most 12
  // levels, and advances the static CMOS history.
  void sum_rows(const std::uint8_t* pts, std::size_t count,
                const std::uint8_t* key, bool sampled, double* out);
  // Points the instances at the pass's rows and builds runs_.
  void plan_pass(const std::uint8_t* key, bool sampled, std::size_t lo,
                 std::size_t width);
  template <std::size_t kWidth, bool kHistory>
  void sum_pass(const Pass& pass) const;
  // Traces [t0, t0 + kTraces) of sum_pass, side by side.
  template <std::size_t kWidth, bool kHistory, std::size_t kTraces>
  void sum_traces(const Pass& pass, std::size_t t0) const;

  RoundSpec round_;
  std::size_t stride_ = 0;       // round_.state_bytes()
  std::size_t last_window_ = 0;  // the last window's first state byte
  std::vector<std::shared_ptr<const LeakageTable>> tables_;  // per instance
  std::vector<Lookup> lookups_;                              // per instance
  std::vector<Run> runs_;
  // Static CMOS history (empty otherwise): the packed input each of the
  // 64 logical lanes last held, lane by lane at stride_ bytes, and bit
  // `lane` of lanes_seen_ says whether the lane holds one at all.
  std::vector<std::uint8_t> previous_;
  std::uint64_t lanes_seen_ = 0;
  std::size_t num_levels_ = 0;
};

template <typename W>
class RoundTargetT : public RoundTargetBase {
 public:
  RoundTargetT(const RoundSpec& round, const Technology& tech)
      : RoundTargetBase(round, tech) {}

  /// Independent target over the same circuits and leakage tables (both
  /// immutable and shared), with fresh CMOS transition history — the
  /// per-worker instance the thread-sharded TraceEngine hands each
  /// thread. Cheap: nothing is re-tabulated.
  RoundTargetT clone() const {
    return RoundTargetT(static_cast<const RoundTargetBase&>(*this));
  }

  /// The same target at another lane width: shares the circuits and
  /// tables, fresh history. Campaigns over the result generate
  /// bit-identical traces to this target's.
  template <typename W2>
  RoundTargetT<W2> with_lane_width() const {
    return RoundTargetT<W2>(static_cast<const RoundTargetBase&>(*this));
  }

 private:
  template <typename>
  friend class RoundTargetT;
  explicit RoundTargetT(const RoundTargetBase& source)
      : RoundTargetBase(source) {
    reset_state();
  }
};

/// The engine's target and the public name.
using RoundTarget = RoundTargetT<std::uint64_t>;

}  // namespace sable
