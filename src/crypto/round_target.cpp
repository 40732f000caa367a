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
  instances_.reserve(round.sboxes.size());
  std::size_t offset = 0;
  for (std::size_t i = 0; i < round.sboxes.size(); ++i) {
    const SboxSpec& spec = round.sboxes[i];
    Instance instance{SubWordField(offset, spec.in_bits), nullptr};
    SABLE_REQUIRE(spec.table.size() == (std::size_t{1} << spec.in_bits),
                  "S-box table must cover every input");
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
  const SubWordField field = instances_[i].field;
  const std::uint32_t subkey = field.read(key);
  const std::uint8_t* states = pts + base * stride;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    rows[lane] = field.read(states + lane * stride) ^ subkey;
  }
  if (history_.empty()) return;
  const std::size_t bits = round_.sboxes[i].in_bits;
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
