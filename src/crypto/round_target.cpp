#include "crypto/round_target.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
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

// Stores the low `bytes` bytes of `value` at `dst`, least significant
// first.
void store_le(std::uint8_t* dst, std::uint64_t value, std::size_t bytes) {
  for (std::size_t k = 0; k < bytes; ++k) {
    dst[k] = static_cast<std::uint8_t>(value >> (8 * k));
  }
}

// Traces the kernel sums side by side: their instance-order add chains
// are independent, so several in flight overlap one another's latency.
// About twelve accumulated levels in flight measured fastest (8 scalar
// rows, two 6-level rows); a runtime width sums in memory, one trace at
// a time.
constexpr std::size_t kMaxTracesInFlight = 8;
constexpr std::size_t traces_in_flight(std::size_t width) {
  return width == 0 ? 1
                    : std::clamp<std::size_t>(12 / width, 1,
                                              kMaxTracesInFlight);
}
// Two levels of an accumulator row, added lane by lane: GCC's generic
// vector, which each target lowers to its own registers (SSE2 on
// x86-64) or to scalar code. Each lane's add is the scalar add, so sums
// do not change; a row costs half the loads and adds.
using LevelPair = double __attribute__((vector_size(2 * sizeof(double))));
// Row widths up to this one get an accumulator of compile-time width
// (scalar rows, PRESENT's 6 levels, DES's 12); wider ones sum in place.
constexpr std::size_t kMaxFixedWidth = 12;

// The host is little-endian (as io/serial.cpp also asserts), so a
// packed state's bytes read as little-endian words in place.
static_assert(std::endian::native == std::endian::little,
              "packed states are read as little-endian words");
std::uint64_t load_le64(const std::uint8_t* bytes) {
  std::uint64_t word = 0;
  std::memcpy(&word, bytes, sizeof word);
  return word;
}

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
    for (std::size_t w = 0; w < words; ++w) {
      store_le(state + 8 * w, local.next(), 8);
    }
    // The top `rest` bits: the bits above the round's width stay zero.
    if (rest != 0) {
      store_le(state + 8 * words, local.next() >> (64 - rest),
               (rest + 7) / 8);
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
  std::size_t offset = 0;
  for (std::size_t i = 0; i < round.sboxes.size(); ++i) {
    const SboxSpec& spec = round.sboxes[i];
    require_sub_word_width(spec.in_bits);
    SABLE_REQUIRE(spec.table.size() == (std::size_t{1} << spec.in_bits),
                  "S-box table must cover every input");
    Lookup lookup;
    lookup.word = static_cast<std::uint32_t>(offset / 64);
    lookup.shift = static_cast<std::uint32_t>(offset % 64);
    lookup.mask = (std::uint64_t{1} << spec.in_bits) - 1;
    lookup.bits = static_cast<std::uint32_t>(spec.in_bits);
    lookup.straddles = lookup.shift + spec.in_bits > 64;
    offset += spec.in_bits;
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
    num_levels_ = std::max(num_levels_, table->num_levels());
    tables_.push_back(std::move(table));
    lookups_.push_back(lookup);
  }
  if (round.style == LogicStyle::kStaticCmos) {
    previous_.resize(64 * lookups_.size());
  }
  stride_ = round.state_bytes();
  state_words_ = (stride_ + 7) / 8;
  words_.assign((1 + kMaxTracesInFlight) * state_words_, 0);
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
  for (std::size_t i = 0; i < lookups_.size(); ++i) {
    lookups_[i].rows = tables_[i]->energies().data();
    lookups_[i].levels = 1;
  }
  sum_rows(pts, count, key, 1, out);
  if (noise_sigma != 0.0) rng.add_gaussian_noise(out, count, noise_sigma);
}

void RoundTargetBase::trace_batch_sampled(const std::uint8_t* pts,
                                          std::size_t count,
                                          const std::uint8_t* key,
                                          double noise_sigma, Rng& rng,
                                          double* out) {
  SABLE_ASSERT(num_levels_ > 0,
               "every logic style has at least one logic level");
  // Instances with fewer logic levels finish earlier: they contribute
  // nothing to the tail columns (time-aligned from cycle start).
  for (std::size_t i = 0; i < lookups_.size(); ++i) {
    lookups_[i].rows = tables_[i]->level_energies().data();
    lookups_[i].levels = static_cast<std::uint32_t>(tables_[i]->num_levels());
  }
  sum_rows(pts, count, key, num_levels_, out);
  if (noise_sigma != 0.0) {
    rng.add_gaussian_noise(out, count * num_levels_, noise_sigma);
  }
}

void RoundTargetBase::sum_rows(const std::uint8_t* pts, std::size_t count,
                               const std::uint8_t* key, std::size_t width,
                               double* out) {
  // The key as whole words, zero past its last byte.
  std::fill(words_.begin(), words_.begin() + state_words_, 0);
  std::memcpy(words_.data(), key, stride_);
  using Kernel = void (RoundTargetBase::*)(const std::uint8_t*, std::size_t,
                                           std::size_t, double*);
  // kernels[h][w]: history h, compile-time width w (0: runtime width).
  static constexpr auto kernels = []<std::size_t... kW>(
                                      std::index_sequence<kW...>) {
    return std::array<std::array<Kernel, sizeof...(kW)>, 2>{
        {{&RoundTargetBase::sum_rows_at<kW, false>...},
         {&RoundTargetBase::sum_rows_at<kW, true>...}}};
  }(std::make_index_sequence<kMaxFixedWidth + 1>{});
  const Kernel kernel =
      kernels[previous_.empty() ? 0 : 1][width <= kMaxFixedWidth ? width : 0];
  (this->*kernel)(pts, count, width, out);
}

template <std::size_t kWidth, bool kHistory>
void RoundTargetBase::sum_rows_at(const std::uint8_t* pts, std::size_t count,
                                  std::size_t width, double* out) {
  // Traces [0, direct) can load whole words in place; the words of a
  // later trace would run past the end of pts.
  const std::size_t bytes = count * stride_;
  const std::size_t reach = 8 * state_words_;
  const std::size_t direct = bytes >= reach ? (bytes - reach) / stride_ + 1 : 0;
  constexpr std::size_t kTraces = traces_in_flight(kWidth);
  std::size_t t = 0;
  for (; t + kTraces <= count; t += kTraces) {
    sum_traces<kWidth, kHistory, kTraces>(pts, t, direct, width, out);
  }
  for (; t < count; ++t) {
    sum_traces<kWidth, kHistory, 1>(pts, t, direct, width, out);
  }
  if constexpr (kHistory) {
    lanes_seen_ |= count >= 64 ? ~std::uint64_t{0}
                               : (std::uint64_t{1} << count) - 1;
  }
}

template <std::size_t kWidth, bool kHistory, std::size_t kTraces>
void RoundTargetBase::sum_traces(const std::uint8_t* pts, std::size_t t0,
                                 std::size_t direct, std::size_t width,
                                 double* out) {
  const std::size_t words = state_words_;
  const std::size_t stride = stride_;
  const std::uint64_t* key = words_.data();
  std::uint64_t* states = words_.data() + words;
  // Each trace's state XOR the key, once per word.
#pragma GCC unroll 8
  for (std::size_t j = 0; j < kTraces; ++j) {
    const std::size_t t = t0 + j;
    const std::uint8_t* state = pts + t * stride;
    std::uint64_t* w = states + j * words;
    if (t < direct) {
      for (std::size_t k = 0; k < words; ++k) {
        w[k] = load_le64(state + 8 * k) ^ key[k];
      }
    } else {
      std::fill(w, w + words, 0);
      std::memcpy(w, state, stride);
      for (std::size_t k = 0; k < words; ++k) w[k] ^= key[k];
    }
  }
  // Static CMOS: trace t runs in logical lane t % 64, which holds a
  // previous input once an earlier trace of this call (t >= 64) or of an
  // earlier call ran in it.
  [[maybe_unused]] std::uint64_t pair_mask[kTraces] = {};
  [[maybe_unused]] std::uint8_t* previous[kTraces] = {};
  if constexpr (kHistory) {
#pragma GCC unroll 8
    for (std::size_t j = 0; j < kTraces; ++j) {
      const std::size_t t = t0 + j;
      const bool seen = t >= 64 || ((lanes_seen_ >> t) & 1) != 0;
      pair_mask[j] = seen ? ~std::uint64_t{0} : 0;
      previous[j] = previous_.data() + (t % 64) * lookups_.size();
    }
  }
  // Row sums in instance order from 0.0: the summation order of direct
  // simulation. A runtime width sums in the output row itself.
  constexpr std::size_t kPairs = kWidth == 0 ? 1 : (kWidth + 1) / 2;
  LevelPair acc[kTraces][kPairs] = {};
  if constexpr (kWidth == 0) {
    std::fill(out + t0 * width, out + (t0 + kTraces) * width, 0.0);
  }
  const Lookup* lookups = lookups_.data();
  const std::size_t num_instances = lookups_.size();
  for (std::size_t i = 0; i < num_instances; ++i) {
    // A copy: the history stores below may alias any field.
    const Lookup f = lookups[i];
    std::uint64_t x[kTraces] = {};
#pragma GCC unroll 8
    for (std::size_t j = 0; j < kTraces; ++j) {
      x[j] = states[j * words + f.word] >> f.shift;
    }
    if (f.straddles) {
      // The sub-word's high bits open the next word.
#pragma GCC unroll 8
      for (std::size_t j = 0; j < kTraces; ++j) {
        x[j] |= states[j * words + f.word + 1] << (64 - f.shift);
      }
    }
#pragma GCC unroll 8
    for (std::size_t j = 0; j < kTraces; ++j) {
      x[j] &= f.mask;
      if constexpr (kHistory) {
        // row(previous, x) = ((previous + 1) << bits) + x.
        std::uint8_t& last = previous[j][i];
        const std::uint64_t row =
            x[j] + (((std::uint64_t{last} + 1) << f.bits) & pair_mask[j]);
        last = static_cast<std::uint8_t>(x[j]);
        x[j] = row;
      }
    }
    if constexpr (kWidth == 0) {
      for (std::size_t j = 0; j < kTraces; ++j) {
        const double* src = f.rows + x[j] * f.levels;
        double* row = out + (t0 + j) * width;
        for (std::size_t l = 0; l < f.levels; ++l) row[l] += src[l];
      }
    } else if (f.levels == kWidth) {
#pragma GCC unroll 8
      for (std::size_t j = 0; j < kTraces; ++j) {
        const double* src = f.rows + x[j] * kWidth;
#pragma GCC unroll 16
        for (std::size_t p = 0; p < kWidth / 2; ++p) {
          LevelPair levels;
          std::memcpy(&levels, src + 2 * p, sizeof levels);
          acc[j][p] += levels;
        }
        if constexpr (kWidth % 2 != 0) {
          acc[j][kPairs - 1][0] += src[kWidth - 1];
        }
      }
    } else {
#pragma GCC unroll 8
      for (std::size_t j = 0; j < kTraces; ++j) {
        const double* src = f.rows + x[j] * f.levels;
#pragma GCC unroll 16
        for (std::size_t l = 0; l < kWidth; ++l) {
          if (l < f.levels) acc[j][l / 2][l % 2] += src[l];
        }
      }
    }
  }
  if constexpr (kWidth != 0) {
#pragma GCC unroll 8
    for (std::size_t j = 0; j < kTraces; ++j) {
#pragma GCC unroll 16
      for (std::size_t l = 0; l < kWidth; ++l) {
        out[(t0 + j) * kWidth + l] = acc[j][l / 2][l % 2];
      }
    }
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
