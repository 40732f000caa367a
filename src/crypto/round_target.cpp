#include "crypto/round_target.hpp"

#include <algorithm>

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
  SABLE_ASSERT(false, "unreachable logic style");
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
  SABLE_ASSERT(false, "unreachable logic style");
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

std::size_t extract_bits(const std::uint8_t* state, std::size_t offset,
                         std::size_t bits) {
  std::size_t value = 0;
  for (std::size_t b = 0; b < bits; ++b) {
    const std::size_t bit = offset + b;
    value |=
        static_cast<std::size_t>((state[bit >> 3] >> (bit & 7)) & 1u) << b;
  }
  return value;
}

void deposit_bits(std::uint8_t* state, std::size_t offset, std::size_t bits,
                  std::size_t value) {
  for (std::size_t b = 0; b < bits; ++b) {
    const std::size_t bit = offset + b;
    const std::uint8_t mask = static_cast<std::uint8_t>(1u << (bit & 7));
    if ((value >> b) & 1u) {
      state[bit >> 3] |= mask;
    } else {
      state[bit >> 3] &= static_cast<std::uint8_t>(~mask);
    }
  }
}

}  // namespace

// ---- RoundSpec ------------------------------------------------------------

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
  return extract_bits(state, bit_offset(index),
                                           sboxes[index].in_bits);
}

void RoundSpec::set_sub_word(std::uint8_t* state, std::size_t index,
                             std::size_t value) const {
  const std::size_t bits = sboxes[index].in_bits;
  SABLE_REQUIRE(value < (std::size_t{1} << bits),
                "sub-word exceeds the instance's input width");
  deposit_bits(state, bit_offset(index), bits, value);
}

void RoundSpec::sub_words(const std::uint8_t* states, std::size_t count,
                          std::size_t index, std::uint8_t* out) const {
  const std::size_t offset = bit_offset(index);
  const std::size_t bits = sboxes[index].in_bits;
  const std::size_t stride = state_bytes();
  for (std::size_t t = 0; t < count; ++t) {
    out[t] = static_cast<std::uint8_t>(
        extract_bits(states + t * stride, offset, bits));
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
  const std::size_t stride = state_bytes();
  std::fill(states, states + count * stride, std::uint8_t{0});
  // Per-instance placement, hoisted out of the state loop. Sub-words that
  // sit inside one byte (all the built-in layouts) deposit with a single
  // OR; only byte-straddling instances pay the per-bit deposit.
  struct Placement {
    std::uint64_t range;
    std::size_t byte;
    unsigned shift;
    std::size_t offset;
    std::size_t bits;
    bool in_byte;
  };
  std::vector<Placement> places;
  places.reserve(sboxes.size());
  std::size_t offset = 0;
  for (const SboxSpec& spec : sboxes) {
    places.push_back({std::uint64_t{1} << spec.in_bits, offset >> 3,
                      static_cast<unsigned>(offset & 7), offset,
                      spec.in_bits, (offset & 7) + spec.in_bits <= 8});
    offset += spec.in_bits;
  }
  // A local generator: byte stores may alias any object, so drawing from
  // `rng` itself would reload its state after every deposit.
  Rng local = rng;
  for (std::size_t t = 0; t < count; ++t) {
    std::uint8_t* state = states + t * stride;
    for (const Placement& p : places) {
      const std::uint64_t value = local.below(p.range);
      if (p.in_byte) {
        state[p.byte] |= static_cast<std::uint8_t>(value << p.shift);
      } else {
        deposit_bits(state, p.offset, p.bits, value);
      }
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
  instances_.reserve(round.sboxes.size());
  std::size_t offset = 0;
  for (std::size_t i = 0; i < round.sboxes.size(); ++i) {
    const SboxSpec& spec = round.sboxes[i];
    SABLE_REQUIRE(spec.in_bits >= 1 && spec.in_bits <= 8,
                  "S-box input width must be 1..8 bits");
    SABLE_REQUIRE(spec.table.size() == (std::size_t{1} << spec.in_bits),
                  "S-box table must cover every input");
    Instance instance;
    instance.bit_offset = offset;
    offset += spec.in_bits;
    // Identical specs share one synthesized circuit (a 16-instance PRESENT
    // round synthesizes once) and, but for WDDL, its table.
    std::shared_ptr<const GateCircuit> circuit;
    for (std::size_t j = 0; j < i && !circuit; ++j) {
      if (same_sbox(round.sboxes[j], spec)) {
        circuit = instances_[j].table->shared_circuit();
        if (!per_instance_model) instance.table = instances_[j].table;
      }
    }
    if (!circuit) {
      circuit = std::make_shared<const GateCircuit>(
          build_sbox_circuit(spec, round.style, tech));
    }
    if (!instance.table) {
      // Per-instance WDDL seed: each pair of rails gets its own
      // deterministic placement/routing imbalance (instance 0 keeps the
      // historic seed).
      instance.table = std::make_shared<const LeakageTable>(
          circuit, round.style, tech, 0x3DD1 + static_cast<std::uint64_t>(i));
    }
    num_levels_ = std::max(num_levels_, instance.table->num_levels());
    instances_.push_back(std::move(instance));
  }
  if (round.style == LogicStyle::kStaticCmos) {
    history_.resize(instances_.size());
  }
  stride_ = round.state_bytes();
}

void RoundTargetBase::instance_rows(std::size_t i, const std::uint8_t* pts,
                                    std::size_t base, std::size_t lanes,
                                    const std::uint8_t* key,
                                    std::uint32_t* rows) {
  const std::size_t stride = stride_;
  const std::size_t offset = instances_[i].bit_offset;
  const std::size_t bits = round_.sboxes[i].in_bits;
  const auto subkey =
      static_cast<std::uint32_t>(extract_bits(key, offset, bits));
  const std::uint8_t* states = pts + base * stride;
  if ((offset & 7) + bits <= 8) {
    // Hot path: the sub-word sits inside one byte (every nibble- or
    // byte-aligned layout, which is all the built-in rounds) — a shift
    // and a mask per trace instead of the per-bit gather.
    const std::uint8_t* bytes = states + (offset >> 3);
    const unsigned shift = offset & 7;
    const std::uint32_t mask = (1u << bits) - 1u;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      rows[lane] = ((bytes[lane * stride] >> shift) & mask) ^ subkey;
    }
  } else {
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      rows[lane] = static_cast<std::uint32_t>(
                       extract_bits(states + lane * stride, offset, bits)) ^
                   subkey;
    }
  }
  if (history_.empty()) return;
  // Static CMOS: trace base + L runs in logical lane L (base is a multiple
  // of 64), whose previous input is the last one that lane held.
  // Branch-free: row(previous, x) = row(0, 0) + ((previous << bits) | x).
  LaneHistory& history = history_[i];
  const std::uint64_t seen = history.seen;
  const auto first_pair =
      static_cast<std::uint32_t>(instances_[i].table->row(0, 0));
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const std::uint32_t x = rows[lane];
    const std::uint32_t pair =
        first_pair + ((std::uint32_t{history.previous[lane]} << bits) | x);
    rows[lane] = (seen >> lane) & 1u ? pair : x;
    history.previous[lane] = static_cast<std::uint8_t>(x);
  }
  history.seen |= lanes == 64 ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << lanes) - 1;
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
  std::uint32_t rows[64];
  for (std::size_t base = 0; base < count; base += 64) {
    const std::size_t lanes = std::min<std::size_t>(64, count - base);
    double* block = out + base;
    std::fill(block, block + lanes, 0.0);
    // Fixed instance order: the summation order of direct simulation.
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      instance_rows(i, pts, base, lanes, key, rows);
      const double* energy = instances_[i].table->energies().data();
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        block[lane] += energy[rows[lane]];
      }
    }
  }
  if (noise_sigma != 0.0) {
    for (std::size_t t = 0; t < count; ++t) {
      out[t] += noise_sigma * rng.gaussian();
    }
  }
}

void RoundTargetBase::trace_batch_sampled(const std::uint8_t* pts,
                                          std::size_t count,
                                          const std::uint8_t* key,
                                          double noise_sigma, Rng& rng,
                                          double* out) {
  const std::size_t width = num_levels_;
  SABLE_ASSERT(width > 0, "every logic style has at least one logic level");
  std::fill(out, out + count * width, 0.0);
  std::uint32_t rows[64];
  for (std::size_t base = 0; base < count; base += 64) {
    const std::size_t lanes = std::min<std::size_t>(64, count - base);
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      instance_rows(i, pts, base, lanes, key, rows);
      const LeakageTable& table = *instances_[i].table;
      const std::size_t levels = table.num_levels();
      const double* energy = table.level_energies().data();
      // Instances with fewer logic levels finish earlier: they contribute
      // nothing to the tail columns (time-aligned from cycle start).
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        double* dst = out + (base + lane) * width;
        const double* src = energy + rows[lane] * levels;
        for (std::size_t l = 0; l < levels; ++l) dst[l] += src[l];
      }
    }
  }
  if (noise_sigma != 0.0) {
    for (std::size_t k = 0; k < count * width; ++k) {
      out[k] += noise_sigma * rng.gaussian();
    }
  }
}

void RoundTargetBase::reset_state() {
  for (LaneHistory& history : history_) history = LaneHistory{};
}

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
  SABLE_REQUIRE(index < instances_.size(), "S-box index out of range");
  return *instances_[index].table;
}

}  // namespace sable
