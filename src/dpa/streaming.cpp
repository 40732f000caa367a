#include "dpa/streaming.hpp"

#include <algorithm>
#include <cmath>

#include "dpa/block_stats.hpp"
#include "io/serial.hpp"
#include "util/error.hpp"

namespace sable {

namespace {

// Accumulator type tags: the first u32 of every serialized accumulator
// blob, so loading a blob into the wrong accumulator type fails loudly.
constexpr std::uint32_t kCpaTag = 0x53AB1001;
constexpr std::uint32_t kDomTag = 0x53AB1002;
constexpr std::uint32_t kMultiCpaTag = 0x53AB1003;

// Working set of the block passes. It lives per thread, not per
// accumulator: a campaign keeps every raw shard state and every MTD
// checkpoint snapshot alive until its reduction, and a per-accumulator
// copy of these buffers would multiply into the campaign's resident
// memory. Never serialized, never merged.
struct BlockScratch {
  BlockHistogram hist;                // add_block's own width-1 histogram
  std::vector<std::uint64_t> counts;  // [kBlockPts]  (sampled histogram)
  std::vector<double> sums;           // [kBlockPts * width]
  std::vector<double> shifts;         // [width]
  std::vector<double> sum_sq;         // [width]
  std::vector<double> moments;        // CPA block, StreamingCpa's layout
  std::vector<double> col_sum;        // [width]  CPA shifted column sums
  std::vector<double> sum0;           // [num_guesses]  DoM partitions
  std::vector<double> sum1;           // [num_guesses]
  std::vector<std::uint64_t> cnt0;    // [num_guesses]
  std::vector<std::uint64_t> cnt1;    // [num_guesses]
};

// The calling thread's scratch, sized for one block pass. Every kernel
// zeroes its outputs first, so stale contents from a previous pass (of
// any accumulator) never leak in. Resizing to the sizes of the previous
// call reallocates nothing, so pointers into it stay valid.
BlockScratch& block_scratch(std::size_t width, std::size_t num_guesses) {
  thread_local BlockScratch s;
  s.counts.resize(detail::kBlockPts);
  s.sums.resize(detail::kBlockPts * width);
  s.shifts.resize(width);
  s.sum_sq.resize(width);
  s.moments.resize((2 + width) * num_guesses + 2 * width);
  s.col_sum.resize(width);
  s.sum0.resize(num_guesses);
  s.sum1.resize(num_guesses);
  s.cnt0.resize(num_guesses);
  s.cnt1.resize(num_guesses);
  return s;
}

// The slices of one block of CPA moments laid out as StreamingCpa's
// state (streaming.hpp): a running state, another accumulator's, or a
// converted block's.
template <typename T>
struct CpaMoments {
  T* mean_h;  // [G]
  T* m2_h;    // [G]
  T* c_ht;    // [width * G]
  T* mean_t;  // [width]
  T* m2_t;    // [width]
};

template <typename T>
CpaMoments<T> cpa_moments(T* block, std::size_t G, std::size_t width) {
  T* c_ht = block + 2 * G;
  T* mean_t = c_ht + width * G;
  return {block, block + G, c_ht, mean_t, mean_t + width};
}

}  // namespace

// The prediction tables come from crypto/leakage.hpp — the same
// plaintext-major layout every distinguisher (including the second-order
// centered-product CPA) shares.

// ---- StreamingCpa ---------------------------------------------------------

StreamingCpa::StreamingCpa(const SboxSpec& spec, PowerModel model,
                           std::size_t width, std::size_t bit,
                           bool time_resolved)
    : num_guesses_(std::size_t{1} << spec.in_bits),
      width_(width),
      model_(model),
      time_resolved_(time_resolved),
      bit_(bit),
      predictions_(shared_prediction_table(spec, model, bit)),
      moments_((2 + width) * num_guesses_ + 2 * width, 0.0) {
  SABLE_REQUIRE(width > 0, "CPA requires at least one sample column");
}

StreamingCpa::StreamingCpa(const SboxSpec& spec, PowerModel model,
                           std::size_t bit)
    : StreamingCpa(spec, model, 1, bit, /*time_resolved=*/false) {}

StreamingCpa StreamingCpa::time_resolved(const SboxSpec& spec,
                                         PowerModel model, std::size_t width,
                                         std::size_t bit) {
  return StreamingCpa(spec, model, width, bit, /*time_resolved=*/true);
}

// The sampled kernel bins width 1 bit-equal to the scalar one but slower
// (dpa/block_stats.hpp), so one column takes the scalar histogram.
void StreamingCpa::add_block(const std::uint8_t* pts, const double* rows,
                             std::size_t count) {
  BlockScratch& scratch = block_scratch(width_, num_guesses_);
  if (width_ == 1) {
    build_block_histogram(pts, rows, count, scratch.hist);
    add_histogram(scratch.hist);
    return;
  }
  if (count == 0) return;
  // Per-column shifts from the block's first row, as the width-1
  // histogram shifts by the first sample.
  for (std::size_t l = 0; l < width_; ++l) scratch.shifts[l] = rows[l];
  detail::block_histogram_sampled(pts, rows, count, width_,
                                  scratch.shifts.data(),
                                  scratch.counts.data(), scratch.sums.data(),
                                  scratch.sum_sq.data());
  add_binned(count, scratch.shifts.data(), scratch.counts.data(),
             scratch.sums.data(), scratch.sum_sq.data());
}

void StreamingCpa::add_histogram(const BlockHistogram& hist) {
  SABLE_REQUIRE(width_ == 1,
                "a block histogram feeds a one-column CPA accumulator");
  add_binned(hist.count, &hist.shift, hist.counts, hist.sums, &hist.sum_sq);
}

void StreamingCpa::add_binned(std::size_t count, const double* shifts,
                              const std::uint64_t* counts, const double* sums,
                              const double* sum_sq) {
  if (count == 0) return;
  const std::size_t G = num_guesses_;
  BlockScratch& scratch = block_scratch(width_, G);
  detail::require_block_pts(counts, G);
  const CpaMoments<double> b = cpa_moments(scratch.moments.data(), G, width_);
  const double* pred = predictions_->data();
  detail::block_contract_counts(pred, counts, G, G, b.mean_h, b.m2_h);
  detail::block_contract_sums(pred, sums, counts, G, width_, G, b.c_ht);
  // Convert the block's shifted sums to Welford form: per-column totals
  // and moments (the mean adds the shift back), then the shared
  // prediction moments, then the per-column co-moments in place — those
  // are shift-invariant: Σ (h−mh)(t−mt) = Σ h·d − mh·Σ d for any shift
  // (Σ (h−mh) = 0).
  const double n = static_cast<double>(count);
  for (std::size_t l = 0; l < width_; ++l) {
    double t_sum = 0.0;
    for (std::size_t p = 0; p < G; ++p) t_sum += sums[p * width_ + l];
    scratch.col_sum[l] = t_sum;
    b.mean_t[l] = shifts[l] + t_sum / n;
    b.m2_t[l] = std::max(0.0, sum_sq[l] - t_sum * t_sum / n);
  }
  for (std::size_t g = 0; g < G; ++g) {
    const double mh = b.mean_h[g] / n;
    b.mean_h[g] = mh;
    b.m2_h[g] = std::max(0.0, b.m2_h[g] - mh * mh * n);
  }
  for (std::size_t l = 0; l < width_; ++l) {
    double* c = b.c_ht + l * G;
    const double t_sum = scratch.col_sum[l];
    for (std::size_t g = 0; g < G; ++g) c[g] -= b.mean_h[g] * t_sum;
  }
  fold(count, scratch.moments.data());
}

void StreamingCpa::fold(std::size_t count, const double* block) {
  if (n_ == 0) {
    n_ = count;
    std::copy(block, block + moments_.size(), moments_.begin());
    return;
  }
  const std::size_t G = num_guesses_;
  const CpaMoments<double> a = cpa_moments(moments_.data(), G, width_);
  const CpaMoments<const double> b = cpa_moments(block, G, width_);
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(count);
  const double n = na + nb;
  const double coeff = na * nb / n;
  // Per column: the co-moments first, while both sides' means are the
  // pre-merge ones, then the column's own Chan merge.
  for (std::size_t l = 0; l < width_; ++l) {
    const double dt = b.mean_t[l] - a.mean_t[l];
    double* c = a.c_ht + l * G;
    const double* bc = b.c_ht + l * G;
    for (std::size_t g = 0; g < G; ++g) {
      c[g] += bc[g] + (b.mean_h[g] - a.mean_h[g]) * dt * coeff;
    }
    a.mean_t[l] += dt * (nb / n);
    a.m2_t[l] += b.m2_t[l] + dt * dt * coeff;
  }
  for (std::size_t g = 0; g < G; ++g) {
    const double dh = b.mean_h[g] - a.mean_h[g];
    a.m2_h[g] += b.m2_h[g] + dh * dh * coeff;
    a.mean_h[g] += dh * (nb / n);
  }
  n_ += count;
}

void StreamingCpa::merge(const StreamingCpa& other) {
  SABLE_REQUIRE(num_guesses_ == other.num_guesses_ &&
                    width_ == other.width_ && model_ == other.model_ &&
                    bit_ == other.bit_,
                "merge requires identically configured CPA accumulators");
  // Same-spec check: model/bit alone would let two different same-width
  // S-boxes merge into meaningless co-moments. Copies of one prototype
  // share the table, so the pointer comparison is the common fast path.
  SABLE_REQUIRE(predictions_ == other.predictions_ ||
                    *predictions_ == *other.predictions_,
                "merge requires accumulators over the same S-box spec");
  if (other.n_ == 0) return;
  fold(other.n_, other.moments_.data());
}

MultiAttackResult StreamingCpa::result() const {
  const std::size_t G = num_guesses_;
  const CpaMoments<const double> m = cpa_moments(moments_.data(), G, width_);
  MultiAttackResult result;
  std::vector<double> combined(G, 0.0);
  double global_best = -1.0;
  for (std::size_t l = 0; l < width_; ++l) {
    for (std::size_t g = 0; g < G; ++g) {
      double score = 0.0;
      if (m.m2_h[g] > 0.0 && m.m2_t[l] > 0.0) {
        score = std::fabs(m.c_ht[l * G + g] /
                          std::sqrt(m.m2_h[g] * m.m2_t[l]));
      }
      combined[g] = std::max(combined[g], score);
      if (score > global_best) {
        global_best = score;
        result.best_sample = l;
      }
    }
  }
  result.combined = make_attack_result(std::move(combined));
  return result;
}

// Two layouts, chosen by how the accumulator was built. Both store a
// column's sample moments as (count, mean, M2).
//   CPA:            tag G model bit | column 0 | mean_h m2_h c_ht
//   time-resolved:  tag G model bit width n | mean_h m2_h | columns | c_ht
void StreamingCpa::save(ByteWriter& writer) const {
  const std::size_t G = num_guesses_;
  const CpaMoments<const double> m = cpa_moments(moments_.data(), G, width_);
  const auto save_column = [&](std::size_t l) {
    writer.u64(n_);
    writer.f64(m.mean_t[l]);
    writer.f64(m.m2_t[l]);
  };
  writer.u32(time_resolved_ ? kMultiCpaTag : kCpaTag);
  writer.u64(G);
  writer.u32(static_cast<std::uint32_t>(model_));
  writer.u64(bit_);
  if (time_resolved_) {
    writer.u64(width_);
    writer.u64(n_);
  } else {
    save_column(0);
  }
  writer.f64s(m.mean_h, 2 * G);  // mean_h, then m2_h
  if (time_resolved_) {
    for (std::size_t l = 0; l < width_; ++l) save_column(l);
  }
  writer.f64s(m.c_ht, width_ * G);
}

void StreamingCpa::load(ByteReader& reader) {
  const std::size_t G = num_guesses_;
  const CpaMoments<double> m = cpa_moments(moments_.data(), G, width_);
  const auto load_column = [&](std::size_t l) {
    const std::uint64_t count = reader.u64();
    m.mean_t[l] = reader.f64();
    m.m2_t[l] = reader.f64();
    return count;
  };
  SABLE_REQUIRE(reader.u32() == (time_resolved_ ? kMultiCpaTag : kCpaTag),
                time_resolved_
                    ? "serialized state is not a multisample CPA accumulator"
                    : "serialized state is not a CPA accumulator");
  SABLE_REQUIRE(reader.u64() == G &&
                    reader.u32() == static_cast<std::uint32_t>(model_) &&
                    reader.u64() == bit_ &&
                    (!time_resolved_ || reader.u64() == width_),
                "serialized CPA state was produced by a differently "
                "configured accumulator (guess count, model, bit or width)");
  n_ = time_resolved_ ? reader.u64() : load_column(0);
  reader.f64s(m.mean_h, 2 * G);  // mean_h, then m2_h
  if (time_resolved_) {
    for (std::size_t l = 0; l < width_; ++l) {
      SABLE_REQUIRE(load_column(l) == n_,
                    "serialized multisample CPA column holds another trace "
                    "count than its accumulator");
    }
  }
  reader.f64s(m.c_ht, width_ * G);
}

// ---- StreamingDom ---------------------------------------------------------

StreamingDom::StreamingDom(const SboxSpec& spec, std::size_t bit)
    : num_guesses_(std::size_t{1} << spec.in_bits),
      num_plaintexts_(num_guesses_),
      bit_(bit) {
  const std::vector<double> pred =
      prediction_table(spec, PowerModel::kSboxOutputBit, bit);
  std::vector<std::uint8_t> bits(pred.size());
  for (std::size_t i = 0; i < pred.size(); ++i) {
    bits[i] = pred[i] > 0.5 ? 1 : 0;
  }
  predicted_bit_ =
      std::make_shared<const std::vector<std::uint8_t>>(std::move(bits));
  for (int p : {0, 1}) {
    sum_[p].assign(num_guesses_, 0.0);
    cnt_[p].assign(num_guesses_, 0);
  }
}

void StreamingDom::add_block(const std::uint8_t* pts, const double* samples,
                             std::size_t count) {
  BlockHistogram& hist = block_scratch(1, num_guesses_).hist;
  build_block_histogram(pts, samples, count, hist);
  add_histogram(hist);
}

void StreamingDom::add_histogram(const BlockHistogram& hist) {
  if (hist.count == 0) return;
  BlockScratch& scratch = block_scratch(1, num_guesses_);
  detail::require_block_pts(hist.counts, num_plaintexts_);
  double* sum0 = scratch.sum0.data();
  double* sum1 = scratch.sum1.data();
  detail::block_contract_dom(predicted_bit_->data(), hist.counts,
                             hist.sums, num_plaintexts_, num_guesses_, sum0,
                             sum1, scratch.cnt0.data(), scratch.cnt1.data());
  // The partitions hold shifted sums; adding cnt·shift back keeps the
  // state raw partition sums (the SABLSTAT layout and merge() read them
  // as such).
  n_ += hist.count;
  for (std::size_t g = 0; g < num_guesses_; ++g) {
    const std::uint64_t c0 = scratch.cnt0[g];
    const std::uint64_t c1 = scratch.cnt1[g];
    sum_[0][g] += sum0[g] + static_cast<double>(c0) * hist.shift;
    sum_[1][g] += sum1[g] + static_cast<double>(c1) * hist.shift;
    cnt_[0][g] += c0;
    cnt_[1][g] += c1;
  }
}

void StreamingDom::merge(const StreamingDom& other) {
  SABLE_REQUIRE(num_guesses_ == other.num_guesses_ && bit_ == other.bit_,
                "merge requires identically configured DoM accumulators");
  SABLE_REQUIRE(predicted_bit_ == other.predicted_bit_ ||
                    *predicted_bit_ == *other.predicted_bit_,
                "merge requires accumulators over the same S-box spec");
  n_ += other.n_;
  for (int p : {0, 1}) {
    for (std::size_t g = 0; g < num_guesses_; ++g) {
      sum_[p][g] += other.sum_[p][g];
      cnt_[p][g] += other.cnt_[p][g];
    }
  }
}

AttackResult StreamingDom::result() const {
  std::vector<double> scores(num_guesses_, 0.0);
  for (std::size_t g = 0; g < num_guesses_; ++g) {
    if (cnt_[0][g] == 0 || cnt_[1][g] == 0) continue;
    scores[g] = std::fabs(sum_[1][g] / static_cast<double>(cnt_[1][g]) -
                          sum_[0][g] / static_cast<double>(cnt_[0][g]));
  }
  return make_attack_result(std::move(scores));
}

void StreamingDom::save(ByteWriter& writer) const {
  writer.u32(kDomTag);
  writer.u64(num_guesses_);
  writer.u64(bit_);
  writer.u64(n_);
  for (int p : {0, 1}) {
    writer.f64s(sum_[p].data(), num_guesses_);
    for (std::size_t g = 0; g < num_guesses_; ++g) writer.u64(cnt_[p][g]);
  }
}

void StreamingDom::load(ByteReader& reader) {
  SABLE_REQUIRE(reader.u32() == kDomTag,
                "serialized state is not a DoM accumulator");
  SABLE_REQUIRE(reader.u64() == num_guesses_ && reader.u64() == bit_,
                "serialized DoM state was produced by a differently "
                "configured accumulator (guess count or bit)");
  n_ = reader.u64();
  for (int p : {0, 1}) {
    reader.f64s(sum_[p].data(), num_guesses_);
    for (std::size_t g = 0; g < num_guesses_; ++g) cnt_[p][g] = reader.u64();
  }
}

}  // namespace sable
