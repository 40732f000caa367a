#include "crypto/round_target.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>

#include "cell/builder.hpp"
#include "expr/factoring.hpp"
#include "util/error.hpp"

namespace sable {

const char* to_string(LogicStyle style) {
  switch (style) {
    case LogicStyle::kStaticCmos:
      return "static-CMOS";
    case LogicStyle::kSablGenuine:
      return "SABL-genuine";
    case LogicStyle::kSablFullyConnected:
      return "SABL-fully-connected";
    case LogicStyle::kSablEnhanced:
      return "SABL-enhanced";
    case LogicStyle::kWddlBalanced:
      return "WDDL-balanced";
    case LogicStyle::kWddlMismatched:
      return "WDDL-5%-mismatch";
  }
  SABLE_UNREACHABLE("unreachable logic style");
}

namespace {

NetworkVariant variant_for(LogicStyle style) {
  switch (style) {
    case LogicStyle::kSablGenuine:
      return NetworkVariant::kGenuine;
    case LogicStyle::kSablEnhanced:
      return NetworkVariant::kEnhanced;
    case LogicStyle::kStaticCmos:  // topology reused; energy model differs
    case LogicStyle::kSablFullyConnected:
    case LogicStyle::kWddlBalanced:
    case LogicStyle::kWddlMismatched:
      return NetworkVariant::kFullyConnected;
  }
  SABLE_UNREACHABLE("unreachable logic style");
}

GateCircuit build_sbox_circuit(const SboxSpec& spec, LogicStyle style,
                               const Technology& tech) {
  std::vector<ExprPtr> outputs;
  outputs.reserve(spec.out_bits);
  for (std::size_t bit = 0; bit < spec.out_bits; ++bit) {
    outputs.push_back(factored_form(sbox_output_bit(spec, bit)));
  }
  return build_from_expressions(outputs, spec.in_bits, variant_for(style),
                                tech);
}

bool same_sbox(const SboxSpec& a, const SboxSpec& b) {
  return a.in_bits == b.in_bits && a.out_bits == b.out_bits &&
         a.table == b.table;
}

void require_sub_word_width(std::size_t bits) {
  SABLE_REQUIRE(bits >= 1 && bits <= 8,
                "S-box input width must be 1..8 bits");
}

// Traces the kernel sums side by side: their instance-order add chains
// are independent, so several in flight overlap one another's latency.
// About twelve accumulated levels in flight measured fastest (8 scalar
// rows, two 6-level rows).
constexpr std::size_t kMaxTracesInFlight = 8;
constexpr std::size_t traces_in_flight(std::size_t width) {
  return std::clamp<std::size_t>(12 / width, 1, kMaxTracesInFlight);
}
// The widest accumulator row: wider rows (AES's 20 levels) are summed in
// passes of at most this many levels, each pass a compile-time width.
constexpr std::size_t kMaxPassWidth = 12;
// Two levels of an accumulator row, added lane by lane: GCC's generic
// vector, which each target lowers to its own registers (SSE2 on
// x86-64) or to scalar code. Each lane's add is the scalar add, so sums
// do not change; a row costs half the loads and adds.
using LevelPair = double __attribute__((vector_size(2 * sizeof(double))));

// One trace's accumulator row of kWidth levels: level pairs, plus a
// scalar for the last level of an odd width.
template <std::size_t kWidth>
struct RowSum {
  static constexpr std::size_t kPairs = kWidth / 2;
  LevelPair pairs[kPairs > 0 ? kPairs : 1] = {};
  double last = 0.0;

  // Adds the first `n` levels of `src`; kFull: n == kWidth.
  template <bool kFull>
  void add(const double* src, std::size_t n) {
#pragma GCC unroll 8
    for (std::size_t p = 0; p < kPairs; ++p) {
      if (kFull || 2 * p + 1 < n) {
        LevelPair levels;
        std::memcpy(&levels, src + 2 * p, sizeof levels);
        pairs[p] += levels;
      } else if (2 * p < n) {
        pairs[p][0] += src[2 * p];
      }
    }
    if constexpr (kWidth % 2 != 0) {
      if (kFull || kWidth - 1 < n) last += src[kWidth - 1];
    }
  }

  void store(double* row) const {
#pragma GCC unroll 16
    for (std::size_t l = 0; l < kWidth; ++l) {
      row[l] = l < 2 * kPairs ? pairs[l / 2][l % 2] : last;
    }
  }
};

SubWordField field_of(const RoundSpec& round, std::size_t index) {
  return SubWordField(round.bit_offset(index), round.sboxes[index].in_bits);
}

}  // namespace

// ---- RoundSpec ------------------------------------------------------------

SubWordField::SubWordField(std::size_t offset, std::size_t bits) {
  require_sub_word_width(bits);
  byte = offset >> 3;
  shift = static_cast<unsigned>(offset & 7);
  mask = (std::uint32_t{1} << bits) - 1;
  straddles = shift + bits > 8;
}

std::size_t RoundSpec::state_bits() const {
  std::size_t bits = 0;
  for (const SboxSpec& spec : sboxes) bits += spec.in_bits;
  return bits;
}

std::size_t RoundSpec::bit_offset(std::size_t index) const {
  SABLE_REQUIRE(index < sboxes.size(), "S-box index out of range");
  std::size_t offset = 0;
  for (std::size_t i = 0; i < index; ++i) offset += sboxes[i].in_bits;
  return offset;
}

std::vector<SubWordWindow> RoundSpec::sub_word_windows(
    bool room_above) const {
  std::vector<SubWordWindow> windows;
  windows.reserve(sboxes.size());
  std::size_t offset = 0;
  std::size_t window = 0;
  for (std::size_t i = 0; i < sboxes.size(); ++i) {
    const std::size_t bits = sboxes[i].in_bits;
    require_sub_word_width(bits);
    // The 8 state bytes from the previous instance's window if they hold
    // all its bits (and, with room_above, the in_bits above them), else
    // from its own first byte: a 1-8-bit sub-word spans at most 15 bits
    // from there, 23 with the room above it.
    const std::size_t span = room_above ? 2 * bits : bits;
    if (i == 0 || offset + span > 8 * window + 64) window = offset / 8;
    windows.push_back(SubWordWindow{
        .byte = static_cast<std::uint32_t>(window),
        .shift = static_cast<std::uint32_t>(offset - 8 * window)});
    offset += bits;
  }
  return windows;
}

std::size_t RoundSpec::sub_word(const std::uint8_t* state,
                                std::size_t index) const {
  return field_of(*this, index).read(state);
}

void RoundSpec::set_sub_word(std::uint8_t* state, std::size_t index,
                             std::size_t value) const {
  const SubWordField f = field_of(*this, index);
  SABLE_REQUIRE(value <= f.mask,
                "sub-word exceeds the instance's input width");
  f.flip(state, f.read(state) ^ static_cast<std::uint32_t>(value));
}

void RoundSpec::sub_words(const std::uint8_t* states, std::size_t count,
                          std::size_t index, std::uint8_t* out) const {
  const SubWordField f = field_of(*this, index);
  const std::size_t stride = state_bytes();
  for (std::size_t t = 0; t < count; ++t) {
    out[t] = static_cast<std::uint8_t>(f.read(states + t * stride));
  }
}

std::vector<std::uint8_t> RoundSpec::pack_subkeys(
    const std::vector<std::size_t>& subkeys) const {
  SABLE_REQUIRE(subkeys.size() == sboxes.size(),
                "pack_subkeys needs one subkey per S-box instance");
  std::vector<std::uint8_t> state(state_bytes(), 0);
  for (std::size_t i = 0; i < subkeys.size(); ++i) {
    set_sub_word(state.data(), i, subkeys[i]);
  }
  return state;
}

void RoundSpec::fill_random_states(Rng& rng, std::size_t count,
                                   std::uint8_t* states) const {
  for (const SboxSpec& spec : sboxes) require_sub_word_width(spec.in_bits);
  const std::size_t bits = state_bits();
  const std::size_t stride = state_bytes();
  const std::size_t words = bits / 64;
  const std::size_t rest = bits % 64;
  // A local generator: byte stores may alias any object, so drawing from
  // `rng` itself would reload its state after every store.
  Rng local = rng;
  for (std::size_t t = 0; t < count; ++t) {
    std::uint8_t* state = states + t * stride;
    // Each chunk is stored as its little-endian bytes (the host's order).
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t chunk = local.next();
      std::memcpy(state + 8 * w, &chunk, sizeof chunk);
    }
    // The top `rest` bits: the bits above the round's width stay zero.
    if (rest != 0) {
      const std::uint64_t chunk = local.next() >> (64 - rest);
      std::memcpy(state + 8 * words, &chunk, (rest + 7) / 8);
    }
  }
  rng = local;
}

std::uint64_t round_spec_hash(const RoundSpec& round) {
  // FNV-1a over the functional fields only. Names stay out: two rounds
  // whose instances compute the same tables in the same style generate
  // identical traces, and the manifest check should agree.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  mix(static_cast<std::uint64_t>(round.style));
  mix(round.num_sboxes());
  for (const SboxSpec& spec : round.sboxes) {
    mix(spec.in_bits);
    mix(spec.out_bits);
    mix(spec.table.size());
    for (std::uint8_t entry : spec.table) {
      h ^= entry;
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

RoundSpec single_sbox_round(const SboxSpec& spec, LogicStyle style) {
  RoundSpec round;
  round.sboxes = {spec};
  round.style = style;
  return round;
}

RoundSpec present_round(std::size_t num_sboxes, LogicStyle style) {
  RoundSpec round;
  round.sboxes.assign(num_sboxes, present_spec());
  round.style = style;
  return round;
}

RoundSpec aes_subbytes_round(std::size_t num_sboxes, LogicStyle style) {
  RoundSpec round;
  round.sboxes.assign(num_sboxes, aes_spec());
  round.style = style;
  return round;
}


// ---- RoundTargetBase ------------------------------------------------------

RoundTargetBase::RoundTargetBase(const RoundSpec& round,
                                 const Technology& tech)
    : round_(round) {
  SABLE_REQUIRE(!round.sboxes.empty(),
                "a round needs at least one S-box instance");
  // WDDL instances each draw their own rail imbalance; the other styles'
  // energy model is the circuit alone, so equal circuits share a table.
  const bool per_instance_model = round.style == LogicStyle::kWddlBalanced ||
                                  round.style == LogicStyle::kWddlMismatched;
  tables_.reserve(round.sboxes.size());
  lookups_.reserve(round.sboxes.size());
  runs_.reserve(round.sboxes.size());
  for (std::size_t i = 0; i < round.sboxes.size(); ++i) {
    const SboxSpec& spec = round.sboxes[i];
    require_sub_word_width(spec.in_bits);
    SABLE_REQUIRE(spec.table.size() == (std::size_t{1} << spec.in_bits),
                  "S-box table must cover every input");
    // Identical specs share one synthesized circuit (a 16-instance PRESENT
    // round synthesizes once) and, but for WDDL, its table.
    std::shared_ptr<const GateCircuit> circuit;
    std::shared_ptr<const LeakageTable> table;
    for (std::size_t j = 0; j < i && !circuit; ++j) {
      if (same_sbox(round.sboxes[j], spec)) {
        circuit = tables_[j]->shared_circuit();
        if (!per_instance_model) table = tables_[j];
      }
    }
    if (!circuit) {
      circuit = std::make_shared<const GateCircuit>(
          build_sbox_circuit(spec, round.style, tech));
    }
    if (!table) {
      // Per-instance WDDL seed: each pair of rails gets its own
      // deterministic placement/routing imbalance (instance 0 keeps the
      // historic seed).
      table = std::make_shared<const LeakageTable>(
          circuit, round.style, tech, 0x3DD1 + static_cast<std::uint64_t>(i));
    }
    Lookup lookup;
    lookup.mask = (std::uint64_t{1} << spec.in_bits) - 1;
    lookup.bits = static_cast<std::uint32_t>(spec.in_bits);
    num_levels_ = std::max(num_levels_, table->num_levels());
    tables_.push_back(std::move(table));
    lookups_.push_back(lookup);
  }
  // With history, the bits above each sub-word must fit in its window
  // too: the kernel reads the previous input from the window shifted up
  // by in_bits.
  const std::vector<SubWordWindow> windows =
      round.sub_word_windows(tables_[0]->has_history());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    lookups_[i].window = windows[i].byte;
    lookups_[i].shift = windows[i].shift;
  }
  stride_ = round.state_bytes();
  last_window_ = windows.back().byte;
  if (tables_[0]->has_history()) {
    // Every lane's last input, plus the slack a window read of lane 63
    // runs past its state.
    previous_.resize(64 * stride_ + sizeof(std::uint64_t));
  }
}

double RoundTargetBase::trace(const std::uint8_t* pt, const std::uint8_t* key,
                              double noise_sigma, Rng& rng) {
  double energy = 0.0;
  trace_batch(pt, 1, key, 0.0, rng, &energy);
  return energy + noise_sigma * rng.gaussian();
}

void RoundTargetBase::trace_batch(const std::uint8_t* pts, std::size_t count,
                                  const std::uint8_t* key, double noise_sigma,
                                  Rng& rng, double* out) {
  sum_rows(pts, count, key, false, out);
  if (noise_sigma != 0.0) rng.add_gaussian_noise(out, count, noise_sigma);
}

void RoundTargetBase::trace_batch_sampled(const std::uint8_t* pts,
                                          std::size_t count,
                                          const std::uint8_t* key,
                                          double noise_sigma, Rng& rng,
                                          double* out) {
  SABLE_ASSERT(num_levels_ > 0,
               "every logic style has at least one logic level");
  sum_rows(pts, count, key, true, out);
  if (noise_sigma != 0.0) {
    rng.add_gaussian_noise(out, count * num_levels_, noise_sigma);
  }
}

void RoundTargetBase::sum_rows(const std::uint8_t* pts, std::size_t count,
                               const std::uint8_t* key, bool sampled,
                               double* out) {
  if (count == 0) return;
  const std::size_t stride = stride_;
  const bool history = !previous_.empty();
  // Static CMOS: trace t runs in logical lane t % 64, and its previous
  // input is the input trace t - 64 held, or for t < 64 the one its lane
  // kept from an earlier call. XORed with this call's key, the kept
  // inputs of the lanes this call reads read like plaintexts.
  const std::size_t lanes = std::min<std::size_t>(count, 64);
  if (history) {
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      std::uint8_t* kept = previous_.data() + lane * stride;
      for (std::size_t k = 0; k < stride; ++k) kept[k] ^= key[k];
    }
  }
  // Traces [0, direct) read every window in place; a later trace's last
  // window would run past the end of pts.
  const std::size_t bytes = count * stride;
  const std::size_t reach = last_window_ + sizeof(std::uint64_t);
  Pass pass{.pts = pts,
            .count = count,
            .direct = bytes >= reach ? (bytes - reach) / stride + 1 : 0,
            .width = sampled ? num_levels_ : 1,
            .lo = 0,
            .out = out};
  using Kernel = void (RoundTargetBase::*)(const Pass&) const;
  // kernels[h][w - 1]: history h, pass width w.
  static constexpr auto kernels = []<std::size_t... kW>(
                                      std::index_sequence<kW...>) {
    return std::array<std::array<Kernel, sizeof...(kW)>, 2>{
        {{&RoundTargetBase::sum_pass<kW + 1, false>...},
         {&RoundTargetBase::sum_pass<kW + 1, true>...}}};
  }(std::make_index_sequence<kMaxPassWidth>{});
  // Passes of near-equal width: a row wider than kMaxPassWidth splits into
  // passes of at least 2 levels, so a 1-level pass is a scalar row.
  for (std::size_t passes = (pass.width + kMaxPassWidth - 1) / kMaxPassWidth;
       passes > 0; --passes) {
    const std::size_t width = (pass.width - pass.lo) / passes;
    plan_pass(key, sampled, pass.lo, width);
    (this->*kernels[history ? 1 : 0][width - 1])(pass);
    pass.lo += width;
  }
  if (history) {
    // Each lane keeps the input of the call's last trace in it.
    for (std::size_t t = count - lanes; t < count; ++t) {
      const std::uint8_t* state = pts + t * stride;
      std::uint8_t* kept = previous_.data() + (t % 64) * stride;
      for (std::size_t k = 0; k < stride; ++k) kept[k] = state[k] ^ key[k];
    }
    lanes_seen_ |= count >= 64 ? ~std::uint64_t{0}
                               : (std::uint64_t{1} << count) - 1;
  }
}

void RoundTargetBase::plan_pass(const std::uint8_t* key, bool sampled,
                                std::size_t lo, std::size_t width) {
  runs_.clear();
  for (std::uint32_t i = 0; i < lookups_.size(); ++i) {
    Lookup& f = lookups_[i];
    const LeakageTable& table = *tables_[i];
    f.levels = sampled ? static_cast<std::uint32_t>(table.num_levels()) : 1;
    // Instances with fewer logic levels finish earlier: they contribute
    // nothing to the tail columns (time-aligned from cycle start).
    if (f.levels <= lo) continue;
    const std::span<const double> rows =
        sampled ? table.level_energies() : table.energies();
    f.rows = rows.data() + lo;
    f.pair_rows = f.rows + (std::size_t{1} << f.bits) * f.levels;
    const auto levels = static_cast<std::uint32_t>(
        std::min<std::size_t>(f.levels - lo, width));
    Run* run = runs_.empty() ? nullptr : &runs_.back();
    if (run && run->end == i && run->window == f.window &&
        run->bits == f.bits && run->levels == levels) {
      ++run->end;
    } else {
      runs_.push_back(
          Run{.key = load_le64_before(key + f.window, key + stride_),
              .window = f.window,
              .bits = f.bits,
              .begin = i,
              .end = i + 1,
              .levels = levels});
    }
  }
}

template <std::size_t kWidth, bool kHistory>
void RoundTargetBase::sum_pass(const Pass& pass) const {
  constexpr std::size_t kTraces = traces_in_flight(kWidth);
  std::size_t t = 0;
  for (; t + kTraces <= pass.direct; t += kTraces) {
    sum_traces<kWidth, kHistory, kTraces>(pass, t);
  }
  for (; t < pass.count; ++t) sum_traces<kWidth, kHistory, 1>(pass, t);
}

template <std::size_t kWidth, bool kHistory, std::size_t kTraces>
void RoundTargetBase::sum_traces(const Pass& pass, std::size_t t0) const {
  const std::size_t stride = stride_;
  const bool tail = t0 + kTraces > pass.direct;
  const std::uint8_t* end = pass.pts + pass.count * stride;
  const std::uint8_t* states[kTraces];
  // Static CMOS: where each trace's previous input sits (see sum_rows),
  // and all-ones once its lane holds one.
  [[maybe_unused]] const std::uint8_t* before[kTraces];
  [[maybe_unused]] std::uint64_t seen[kTraces];
  [[maybe_unused]] bool all_seen = true;
#pragma GCC unroll 8
  for (std::size_t j = 0; j < kTraces; ++j) {
    const std::size_t t = t0 + j;
    states[j] = pass.pts + t * stride;
    if constexpr (kHistory) {
      const bool recent = t >= 64;
      before[j] = recent ? pass.pts + (t - 64) * stride
                         : previous_.data() + t * stride;
      seen[j] = (recent || ((lanes_seen_ >> t) & 1) != 0) ? ~std::uint64_t{0}
                                                          : 0;
      all_seen = all_seen && seen[j] != 0;
    }
  }
  // Row sums in instance order from 0.0: the summation order of direct
  // simulation.
  RowSum<kWidth> acc[kTraces];
  const Lookup* lookups = lookups_.data();
  for (const Run& run : runs_) {
    // Each trace's window of state XOR key, read once per run; with
    // history, also the previous input's window, shifted up by in_bits
    // so each previous sub-word lands just above the current one.
    std::uint64_t words[kTraces];
    [[maybe_unused]] std::uint64_t previous[kTraces];
#pragma GCC unroll 8
    for (std::size_t j = 0; j < kTraces; ++j) {
      const std::uint8_t* window = states[j] + run.window;
      words[j] = (tail ? load_le64_before(window, end)
                       : load_le64(window)) ^
                 run.key;
      if constexpr (kHistory) {
        previous[j] = (load_le64(before[j] + run.window) ^ run.key)
                      << run.bits;
      }
    }
    const auto sum_run = [&]<bool kFull, bool kAllSeen>(
                             std::bool_constant<kFull>,
                             std::bool_constant<kAllSeen>) {
      for (std::uint32_t i = run.begin; i < run.end; ++i) {
        const Lookup f = lookups[i];
#pragma GCC unroll 8
        for (std::size_t j = 0; j < kTraces; ++j) {
          const std::uint64_t x = (words[j] >> f.shift) & f.mask;
          const double* rows = f.rows;
          std::uint64_t row = x;
          if constexpr (kHistory) {
            // row(previous, x) = (1 << bits) + (previous << bits | x),
            // or x while the lane has no previous input.
            const std::uint64_t pair =
                x | ((previous[j] >> f.shift) & (f.mask << f.bits));
            if constexpr (kAllSeen) {
              rows = f.pair_rows;
              row = pair;
            } else {
              row = seen[j] != 0 ? pair + (f.mask + 1) : x;
            }
          }
          // A 1-level pass is a scalar row: one double per table row.
          const std::size_t at = kWidth == 1 ? row : row * f.levels;
          acc[j].template add<kFull>(rows + at, run.levels);
        }
      }
    };
    const bool full = run.levels == kWidth;
    if (!kHistory || all_seen) {
      if (full) {
        sum_run(std::true_type{}, std::true_type{});
      } else {
        sum_run(std::false_type{}, std::true_type{});
      }
    } else if (full) {
      sum_run(std::true_type{}, std::false_type{});
    } else {
      sum_run(std::false_type{}, std::false_type{});
    }
  }
#pragma GCC unroll 8
  for (std::size_t j = 0; j < kTraces; ++j) {
    acc[j].store(pass.out + (t0 + j) * pass.width + pass.lo);
  }
}

void RoundTargetBase::reset_state() { lanes_seen_ = 0; }

std::uint8_t RoundTargetBase::reference(std::size_t index,
                                        const std::uint8_t* pt,
                                        const std::uint8_t* key) const {
  const std::size_t x =
      round_.sub_word(pt, index) ^ round_.sub_word(key, index);
  return round_.sboxes[index].apply(static_cast<std::uint8_t>(x));
}

const GateCircuit& RoundTargetBase::circuit(std::size_t index) const {
  return leakage_table(index).circuit();
}

const LeakageTable& RoundTargetBase::leakage_table(std::size_t index) const {
  SABLE_REQUIRE(index < tables_.size(), "S-box index out of range");
  return *tables_[index];
}

}  // namespace sable
