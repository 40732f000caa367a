#include "dpa/second_order.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "dpa/block_stats.hpp"
#include "io/serial.hpp"
#include "util/error.hpp"

namespace sable {

namespace {

constexpr std::uint32_t kSecondOrderTag = 0x53AB1004;

// Traces per counting-sort chunk of a block pass: large enough that each
// plaintext's run is long, small enough that the sorted copy of the
// chunk (kSortChunk · width doubles per thread) stays in L1 whatever the
// shard size.
constexpr std::size_t kSortChunk = 512;

// Pair p enumerates i < j lexicographically: (0,1), (0,2), …, (1,2), ….
// The loops below iterate pairs in this order with a running index, so the
// helper only sizes the per-pair arrays.
std::size_t pair_count(std::size_t width) {
  return width * (width - 1) / 2;
}

// An even/odd pair of partial sums as one 16-byte vector: lane 0 sums the
// even run offsets, lane 1 the odd ones. Each lane runs exactly the
// operations a scalar partial sum would, in the same order, so the
// vector form changes no bit of the result; it halves the instructions
// of the block pass's run loops.
using EvenOdd = double __attribute__((vector_size(16)));

EvenOdd load_even_odd(const double* p) {
  EvenOdd v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

StreamingSecondOrderCpa::StreamingSecondOrderCpa(const SboxSpec& spec,
                                                 PowerModel model,
                                                 std::size_t bit)
    : num_guesses_(std::size_t{1} << spec.in_bits),
      num_plaintexts_(num_guesses_),
      model_(model),
      bit_(bit),
      predictions_(shared_prediction_table(spec, model, bit)) {}

// Working set of one block pass and of combine(). It lives per thread,
// not per accumulator, like the first-order BlockScratch in streaming.cpp:
// a campaign keeps every raw shard state alive until its reduction, and
// per-accumulator buffers would multiply into its resident memory. Never
// serialized, never merged.
struct StreamingSecondOrderCpa::Scratch {
  Sums block;                          // the block's central sums
  std::vector<std::uint64_t> counts;   // [kBlockPts] plaintext histogram
  std::vector<std::size_t> run;        // [plaintexts] chunk run lengths
  std::vector<std::size_t> slot;       // [plaintexts] counting-sort cursor
  std::vector<double> dx;              // [width * kSortChunk] sorted chunk
  std::vector<double> s1;              // [plaintexts * width]  Σ dx_i
  std::vector<double> s2;              // [plaintexts * pairs]  Σ dx_i·dx_j
  std::vector<double> dh;              // [plaintexts * guesses]
  std::vector<double> ax, bx, ah, bh;  // combine's mean deviations
};

StreamingSecondOrderCpa::Scratch& StreamingSecondOrderCpa::scratch() {
  thread_local Scratch s;
  return s;
}

void StreamingSecondOrderCpa::require_width(std::size_t width) const {
  if (width_ != 0) {
    SABLE_REQUIRE(width == width_,
                  "second-order CPA blocks must keep the row width of the "
                  "first block");
    return;
  }
  SABLE_REQUIRE(width >= 2,
                "second-order CPA needs at least two sample columns to "
                "form a centered product");
}

void StreamingSecondOrderCpa::ensure_width(std::size_t width) {
  require_width(width);
  if (width_ != 0) return;
  width_ = width;
  num_pairs_ = pair_count(width);
  sums_.mean_x.assign(width_, 0.0);
  sums_.mean_h.assign(num_guesses_, 0.0);
  sums_.m2_h.assign(num_guesses_, 0.0);
  sums_.c2.assign(width_ * width_, 0.0);
  sums_.c_xh.assign(width_ * num_guesses_, 0.0);
  sums_.m3_iij.assign(num_pairs_, 0.0);
  sums_.m3_ijj.assign(num_pairs_, 0.0);
  sums_.m4.assign(num_pairs_, 0.0);
  sums_.m3_ijh.assign(num_pairs_ * num_guesses_, 0.0);
}

const StreamingSecondOrderCpa::Sums& StreamingSecondOrderCpa::block_sums(
    const std::uint8_t* pts, const double* rows, std::size_t count,
    std::size_t width) const {
  const std::size_t L = width;
  const std::size_t pairs = pair_count(width);
  const std::size_t G = num_guesses_;
  const std::size_t P = num_plaintexts_;
  Scratch& s = scratch();
  Sums& b = s.block;
  b.n = count;
  b.mean_x.assign(L, 0.0);
  b.mean_h.assign(G, 0.0);
  b.m2_h.assign(G, 0.0);
  b.c2.assign(L * L, 0.0);
  b.c_xh.resize(L * G);
  b.m3_iij.assign(pairs, 0.0);
  b.m3_ijj.assign(pairs, 0.0);
  b.m4.assign(pairs, 0.0);
  b.m3_ijh.resize(pairs * G);
  s.counts.assign(detail::kBlockPts, 0);
  s.run.resize(P);
  s.slot.resize(P);
  s.dx.resize(L * kSortChunk);
  s.s1.resize(P * L);
  s.s2.resize(P * pairs);
  s.dh.resize(P * G);
  std::uint64_t* counts = s.counts.data();

  // Pass 1: the plaintext histogram and the block's column means. Every
  // byte lands in one of the 256 slots, so the range check is one sweep
  // afterwards, before anything outside this scratch can change.
  for (std::size_t t = 0; t < count; ++t) {
    ++counts[pts[t]];
    const double* row = rows + t * L;
    for (std::size_t i = 0; i < L; ++i) b.mean_x[i] += row[i];
  }
  detail::require_block_pts(counts, P);
  const double inv_n = 1.0 / static_cast<double>(count);
  for (std::size_t i = 0; i < L; ++i) b.mean_x[i] *= inv_n;

  // The prediction stream depends only on the sub-plaintext value, so its
  // per-guess mean and M2 reduce to the histogram, and so does the
  // block-centred table dh — built for the occupied plaintexts only (the
  // contraction skips the others).
  const double* table = predictions_->data();
  for (std::size_t pt = 0; pt < P; ++pt) {
    if (counts[pt] == 0) continue;
    const double w = static_cast<double>(counts[pt]);
    const double* pred = table + pt * G;
    for (std::size_t g = 0; g < G; ++g) b.mean_h[g] += w * pred[g];
  }
  for (std::size_t g = 0; g < G; ++g) b.mean_h[g] *= inv_n;
  for (std::size_t pt = 0; pt < P; ++pt) {
    if (counts[pt] == 0) continue;
    const double w = static_cast<double>(counts[pt]);
    const double* pred = table + pt * G;
    double* dh = s.dh.data() + pt * G;
    for (std::size_t g = 0; g < G; ++g) {
      dh[g] = pred[g] - b.mean_h[g];
      b.m2_h[g] += w * dh[g] * dh[g];
    }
  }

  // Pass 2, one chunk of kSortChunk traces at a time: counting-sort the
  // chunk's centred rows by plaintext into level-major columns,
  // dx[i * n + slot]. Each plaintext's traces become one contiguous run
  // per level, so its bins are plain run sums and no per-trace loop
  // scatters into (or runs over) anything guess-sized.
  for (std::size_t pt = 0; pt < P; ++pt) {
    if (counts[pt] == 0) continue;
    std::fill_n(s.s1.data() + pt * L, L, 0.0);
    std::fill_n(s.s2.data() + pt * pairs, pairs, 0.0);
  }
  std::size_t* run = s.run.data();
  std::size_t* slot = s.slot.data();
  double* dx = s.dx.data();
  for (std::size_t first = 0; first < count; first += kSortChunk) {
    const std::size_t n = std::min(kSortChunk, count - first);
    const std::uint8_t* chunk_pts = pts + first;
    const double* chunk_rows = rows + first * L;
    std::fill_n(run, P, 0);
    for (std::size_t t = 0; t < n; ++t) ++run[chunk_pts[t]];
    std::size_t next = 0;
    for (std::size_t pt = 0; pt < P; ++pt) {
      slot[pt] = next;
      next += run[pt];
    }
    // After the sort slot[pt] is the end of plaintext pt's run.
    for (std::size_t t = 0; t < n; ++t) {
      const double* row = chunk_rows + t * L;
      const std::size_t at = slot[chunk_pts[t]]++;
      for (std::size_t i = 0; i < L; ++i) {
        dx[i * n + at] = row[i] - b.mean_x[i];
      }
    }

    // The guess-free sums and the bins, one column or column pair at a
    // time over the plaintext runs. Two interleaved partial sums per
    // quantity (even and odd run offsets, the two lanes of an EvenOdd)
    // keep the adds off one dependent chain; an odd run's last trace
    // goes to the even lane. The order is fixed, so the result is
    // deterministic.
    for (std::size_t i = 0; i < L; ++i) {
      const double* __restrict xi = dx + i * n;
      EvenOdd q = {};
      for (std::size_t pt = 0; pt < P; ++pt) {
        if (run[pt] == 0) continue;
        const std::size_t end = slot[pt];
        std::size_t t = end - run[pt];
        EvenOdd d = {};
        for (; t + 2 <= end; t += 2) {
          const EvenOdd x = load_even_odd(xi + t);
          d += x;
          q += x * x;
        }
        if (t < end) {
          d[0] += xi[t];
          q[0] += xi[t] * xi[t];
        }
        s.s1[pt * L + i] += d[0] + d[1];
      }
      b.c2[i * L + i] += q[0] + q[1];
    }
    std::size_t p = 0;
    for (std::size_t i = 0; i < L; ++i) {
      for (std::size_t j = i + 1; j < L; ++j, ++p) {
        const double* __restrict xi = dx + i * n;
        const double* __restrict xj = dx + j * n;
        EvenOdd a = {}, bj = {}, c = {};
        double cij = 0.0;
        for (std::size_t pt = 0; pt < P; ++pt) {
          if (run[pt] == 0) continue;
          const std::size_t end = slot[pt];
          std::size_t t = end - run[pt];
          EvenOdd d = {};
          for (; t + 2 <= end; t += 2) {
            const EvenOdd x = load_even_odd(xi + t);
            const EvenOdd y = load_even_odd(xj + t);
            const EvenOdd prod = x * y;
            a += x * prod;
            bj += prod * y;
            c += prod * prod;
            d += prod;
          }
          if (t < end) {
            const double prod = xi[t] * xj[t];
            a[0] += xi[t] * prod;
            bj[0] += prod * xj[t];
            c[0] += prod * prod;
            d[0] += prod;
          }
          const double sum = d[0] + d[1];
          s.s2[pt * pairs + p] += sum;
          cij += sum;
        }
        b.m3_iij[p] += a[0] + a[1];
        b.m3_ijj[p] += bj[0] + bj[1];
        b.m4[p] += c[0] + c[1];
        b.c2[i * L + j] += cij;
      }
    }
  }
  // Mirror the upper triangle: the combine formulas index c2 freely.
  for (std::size_t i = 0; i < L; ++i) {
    for (std::size_t j = 0; j < i; ++j) b.c2[i * L + j] = b.c2[j * L + i];
  }

  // Once per block: contract the bins against the centred table.
  detail::block_contract_sums(s.dh.data(), s.s1.data(), counts, P, L, G,
                              b.c_xh.data());
  detail::block_contract_sums(s.dh.data(), s.s2.data(), counts, P, pairs, G,
                              b.m3_ijh.data());
  return b;
}

void StreamingSecondOrderCpa::combine(Sums& a, const Sums& b) const {
  if (b.n == 0) return;
  if (a.n == 0) {
    a = b;
    return;
  }
  const std::size_t L = width_;
  const std::size_t G = num_guesses_;
  const double na = static_cast<double>(a.n);
  const double nb = static_cast<double>(b.n);
  const double n = na + nb;

  // Deviations of each part's mean from the combined mean: for column i,
  // a_i = μ_Ai − μ, b_i = μ_Bi − μ. Every formula below is the exact
  // expansion of the combined central sum Σ (d + shift)·… with the
  // part-local zero-sum terms dropped.
  Scratch& s = scratch();
  s.ax.resize(L);
  s.bx.resize(L);
  s.ah.resize(G);
  s.bh.resize(G);
  double* ax = s.ax.data();
  double* bx = s.bx.data();
  double* ah = s.ah.data();
  double* bh = s.bh.data();
  for (std::size_t i = 0; i < L; ++i) {
    const double d = b.mean_x[i] - a.mean_x[i];
    ax[i] = -d * nb / n;
    bx[i] = d * na / n;
  }
  for (std::size_t g = 0; g < G; ++g) {
    const double d = b.mean_h[g] - a.mean_h[g];
    ah[g] = -d * nb / n;
    bh[g] = d * na / n;
  }

  // Highest order first: each update reads only pre-merge lower-order
  // sums, which are still untouched further down.
  std::size_t p = 0;
  for (std::size_t i = 0; i < L; ++i) {
    for (std::size_t j = i + 1; j < L; ++j, ++p) {
      const double acii = a.c2[i * L + i], acjj = a.c2[j * L + j];
      const double acij = a.c2[i * L + j];
      const double bcii = b.c2[i * L + i], bcjj = b.c2[j * L + j];
      const double bcij = b.c2[i * L + j];
      a.m4[p] += b.m4[p]
          + 2.0 * ax[j] * a.m3_iij[p] + 2.0 * ax[i] * a.m3_ijj[p]
          + ax[j] * ax[j] * acii + ax[i] * ax[i] * acjj
          + 4.0 * ax[i] * ax[j] * acij
          + na * ax[i] * ax[i] * ax[j] * ax[j]
          + 2.0 * bx[j] * b.m3_iij[p] + 2.0 * bx[i] * b.m3_ijj[p]
          + bx[j] * bx[j] * bcii + bx[i] * bx[i] * bcjj
          + 4.0 * bx[i] * bx[j] * bcij
          + nb * bx[i] * bx[i] * bx[j] * bx[j];
      double* m3h = a.m3_ijh.data() + p * G;
      const double* om3h = b.m3_ijh.data() + p * G;
      const double* acxi = a.c_xh.data() + i * G;
      const double* acxj = a.c_xh.data() + j * G;
      const double* bcxi = b.c_xh.data() + i * G;
      const double* bcxj = b.c_xh.data() + j * G;
      for (std::size_t g = 0; g < G; ++g) {
        m3h[g] += om3h[g]
            + ax[i] * acxj[g] + ax[j] * acxi[g] + ah[g] * acij
            + na * ax[i] * ax[j] * ah[g]
            + bx[i] * bcxj[g] + bx[j] * bcxi[g] + bh[g] * bcij
            + nb * bx[i] * bx[j] * bh[g];
      }
      a.m3_iij[p] += b.m3_iij[p]
          + 2.0 * ax[i] * acij + ax[j] * acii + na * ax[i] * ax[i] * ax[j]
          + 2.0 * bx[i] * bcij + bx[j] * bcii + nb * bx[i] * bx[i] * bx[j];
      a.m3_ijj[p] += b.m3_ijj[p]
          + 2.0 * ax[j] * acij + ax[i] * acjj + na * ax[i] * ax[j] * ax[j]
          + 2.0 * bx[j] * bcij + bx[i] * bcjj + nb * bx[i] * bx[j] * bx[j];
    }
  }
  for (std::size_t i = 0; i < L; ++i) {
    for (std::size_t j = 0; j < L; ++j) {
      a.c2[i * L + j] += b.c2[i * L + j] + na * ax[i] * ax[j]
          + nb * bx[i] * bx[j];
    }
    double* cx = a.c_xh.data() + i * G;
    const double* ocx = b.c_xh.data() + i * G;
    for (std::size_t g = 0; g < G; ++g) {
      cx[g] += ocx[g] + na * ax[i] * ah[g] + nb * bx[i] * bh[g];
    }
  }
  for (std::size_t g = 0; g < G; ++g) {
    a.m2_h[g] += b.m2_h[g] + na * ah[g] * ah[g] + nb * bh[g] * bh[g];
  }
  for (std::size_t i = 0; i < L; ++i) {
    a.mean_x[i] += (b.mean_x[i] - a.mean_x[i]) * nb / n;
  }
  for (std::size_t g = 0; g < G; ++g) {
    a.mean_h[g] += (b.mean_h[g] - a.mean_h[g]) * nb / n;
  }
  a.n += b.n;
}

void StreamingSecondOrderCpa::add_block(const std::uint8_t* pts,
                                        const double* rows, std::size_t count,
                                        std::size_t width) {
  if (count == 0) return;
  require_width(width);
  const Sums& b = block_sums(pts, rows, count, width);
  ensure_width(width);
  combine(sums_, b);
}

void StreamingSecondOrderCpa::merge(const StreamingSecondOrderCpa& other) {
  SABLE_REQUIRE(num_guesses_ == other.num_guesses_ &&
                    model_ == other.model_ && bit_ == other.bit_,
                "merge requires identically configured second-order CPA "
                "accumulators");
  SABLE_REQUIRE(predictions_ == other.predictions_ ||
                    *predictions_ == *other.predictions_,
                "merge requires accumulators over the same S-box spec");
  if (other.width_ == 0) return;  // other never saw a block
  ensure_width(other.width_);
  combine(sums_, other.sums_);
}

void StreamingSecondOrderCpa::save(ByteWriter& writer) const {
  writer.u32(kSecondOrderTag);
  writer.u64(num_guesses_);
  writer.u32(static_cast<std::uint32_t>(model_));
  writer.u64(bit_);
  writer.u64(width_);
  if (width_ == 0) return;  // lazily sized; nothing accumulated yet
  writer.u64(sums_.n);
  writer.f64s(sums_.mean_x.data(), width_);
  writer.f64s(sums_.mean_h.data(), num_guesses_);
  writer.f64s(sums_.m2_h.data(), num_guesses_);
  writer.f64s(sums_.c2.data(), width_ * width_);
  writer.f64s(sums_.c_xh.data(), width_ * num_guesses_);
  writer.f64s(sums_.m3_iij.data(), num_pairs_);
  writer.f64s(sums_.m3_ijj.data(), num_pairs_);
  writer.f64s(sums_.m4.data(), num_pairs_);
  writer.f64s(sums_.m3_ijh.data(), num_pairs_ * num_guesses_);
}

void StreamingSecondOrderCpa::load(ByteReader& reader) {
  SABLE_REQUIRE(reader.u32() == kSecondOrderTag,
                "serialized state is not a second-order CPA accumulator");
  SABLE_REQUIRE(reader.u64() == num_guesses_ &&
                    reader.u32() == static_cast<std::uint32_t>(model_) &&
                    reader.u64() == bit_,
                "serialized second-order CPA state was produced by a "
                "differently configured accumulator (guess count, model or "
                "bit)");
  const std::uint64_t width = reader.u64();
  if (width == 0) {
    SABLE_REQUIRE(width_ == 0,
                  "cannot load an empty second-order state into an "
                  "accumulator whose width is already fixed");
    return;
  }
  // A corrupt width field must not drive the O(width^2) allocations in
  // ensure_width: the c2 matrix alone needs width^2 doubles from the
  // stream, so bound the claim by the bytes actually remaining.
  SABLE_REQUIRE(width <= 0xFFFF &&
                    width * width <= reader.remaining() / sizeof(double),
                "serialized second-order width is implausibly large for "
                "the remaining file size");
  // The stored width must agree with a fixed width; a lazily unsized
  // accumulator adopts it (the same rule add_block applies to its first
  // block, including the >= 2 check inside ensure_width).
  ensure_width(static_cast<std::size_t>(width));
  sums_.n = reader.u64();
  reader.f64s(sums_.mean_x.data(), width_);
  reader.f64s(sums_.mean_h.data(), num_guesses_);
  reader.f64s(sums_.m2_h.data(), num_guesses_);
  reader.f64s(sums_.c2.data(), width_ * width_);
  reader.f64s(sums_.c_xh.data(), width_ * num_guesses_);
  reader.f64s(sums_.m3_iij.data(), num_pairs_);
  reader.f64s(sums_.m3_ijj.data(), num_pairs_);
  reader.f64s(sums_.m4.data(), num_pairs_);
  reader.f64s(sums_.m3_ijh.data(), num_pairs_ * num_guesses_);
}

SecondOrderAttackResult StreamingSecondOrderCpa::result() const {
  SABLE_REQUIRE(sums_.n >= 2,
                "second-order CPA requires at least two traces");
  const std::size_t L = width_;
  const std::size_t G = num_guesses_;
  const double n = static_cast<double>(sums_.n);
  SecondOrderAttackResult result;
  std::vector<double> combined(G, 0.0);
  double global_best = -1.0;
  std::size_t p = 0;
  for (std::size_t i = 0; i < L; ++i) {
    for (std::size_t j = i + 1; j < L; ++j, ++p) {
      const double cij = sums_.c2[i * L + j];
      // n · Var of the centered product: M4_iijj − C_ij²/n. Rounding can
      // push a degenerate pair epsilon-negative, so guard, don't clamp.
      const double var_p = sums_.m4[p] - cij * cij / n;
      if (!(var_p > 0.0)) continue;
      const double* m3h = sums_.m3_ijh.data() + p * G;
      for (std::size_t g = 0; g < G; ++g) {
        if (!(sums_.m2_h[g] > 0.0)) continue;
        const double score =
            std::fabs(m3h[g]) / std::sqrt(var_p * sums_.m2_h[g]);
        if (score > combined[g]) combined[g] = score;
        if (score > global_best) {
          global_best = score;
          result.best_pair_first = i;
          result.best_pair_second = j;
        }
      }
    }
  }
  result.combined = make_attack_result(std::move(combined));
  return result;
}

}  // namespace sable
