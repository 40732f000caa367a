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
  BlockHistogram hist;                // add_block's own scalar histogram
  std::vector<std::uint64_t> counts;  // [kBlockPts]
  std::vector<double> sums;           // [kBlockPts * width]
  std::vector<double> shifts;         // [width]
  std::vector<double> sum_sq;         // [width]
  std::vector<double> sum_h;          // [num_guesses]  (DoM: sum0)
  std::vector<double> sum_h2;         // [num_guesses]  (DoM: sum1)
  std::vector<std::uint64_t> cnt0;    // [num_guesses]  (DoM partitions)
  std::vector<std::uint64_t> cnt1;    // [num_guesses]
  std::vector<double> r;              // [width * num_guesses]
  std::vector<double> col_sum;        // [width]
  std::vector<double> col_mean;       // [width]
  std::vector<double> col_m2;         // [width]
};

// The calling thread's scratch, sized for one block pass. Every kernel
// zeroes its outputs first, so stale contents from a previous pass (of
// any accumulator) never leak in.
BlockScratch& block_scratch(std::size_t width, std::size_t num_guesses) {
  thread_local BlockScratch s;
  s.counts.resize(detail::kBlockPts);
  s.sums.resize(detail::kBlockPts * width);
  s.shifts.resize(width);
  s.sum_sq.resize(width);
  s.sum_h.resize(num_guesses);
  s.sum_h2.resize(num_guesses);
  s.cnt0.resize(num_guesses);
  s.cnt1.resize(num_guesses);
  s.r.resize(width * num_guesses);
  s.col_sum.resize(width);
  s.col_mean.resize(width);
  s.col_m2.resize(width);
  return s;
}

}  // namespace

// The prediction tables come from crypto/leakage.hpp — the same
// plaintext-major layout every distinguisher (including the second-order
// centered-product CPA) shares.

// ---- StreamingCpa ---------------------------------------------------------

StreamingCpa::StreamingCpa(const SboxSpec& spec, PowerModel model,
                           std::size_t bit)
    : num_guesses_(std::size_t{1} << spec.in_bits),
      num_plaintexts_(num_guesses_),
      model_(model),
      bit_(bit),
      predictions_(shared_prediction_table(spec, model, bit)),
      mean_h_(num_guesses_, 0.0),
      m2_h_(num_guesses_, 0.0),
      c_ht_(num_guesses_, 0.0) {}

void StreamingCpa::add_block(const std::uint8_t* pts, const double* samples,
                             std::size_t count) {
  BlockHistogram& hist = block_scratch(1, num_guesses_).hist;
  build_block_histogram(pts, samples, count, hist);
  add_histogram(hist);
}

void StreamingCpa::add_histogram(const BlockHistogram& hist) {
  if (hist.count == 0) return;
  BlockScratch& scratch = block_scratch(1, num_guesses_);
  detail::require_block_pts(hist.counts, num_plaintexts_);
  const double* pred = predictions_->data();
  detail::block_contract_counts(pred, hist.counts, num_plaintexts_,
                                num_guesses_, scratch.sum_h.data(),
                                scratch.sum_h2.data());
  detail::block_contract_sums(pred, hist.sums, hist.counts, num_plaintexts_,
                              1, num_guesses_, scratch.r.data());
  // Convert the block's shifted sums to Welford form: the co-moments are
  // shift-invariant, the mean adds the shift back.
  const double n = static_cast<double>(hist.count);
  double t_sum = 0.0;
  for (std::size_t p = 0; p < num_plaintexts_; ++p) t_sum += hist.sums[p];
  const double mean_t = hist.shift + t_sum / n;
  const double m2_t = std::max(0.0, hist.sum_sq - t_sum * t_sum / n);
  for (std::size_t g = 0; g < num_guesses_; ++g) {
    const double mh = scratch.sum_h[g] / n;
    scratch.sum_h[g] = mh;
    scratch.sum_h2[g] = std::max(0.0, scratch.sum_h2[g] - mh * mh * n);
    // Σ (h−mh)(t−mt) = Σ h·d − mh·Σ d for any shift (Σ (h−mh) = 0).
    scratch.r[g] -= mh * t_sum;
  }
  fold_block(hist.count, mean_t, m2_t, scratch.sum_h.data(),
             scratch.sum_h2.data(), scratch.r.data());
}

void StreamingCpa::fold_block(std::size_t count, double mean_t, double m2_t,
                              const double* block_mean_h,
                              const double* block_m2_h,
                              const double* block_c_ht) {
  const OnlineMoments block = OnlineMoments::from_parts(count, mean_t, m2_t);
  if (t_.count() == 0) {
    t_ = block;
    std::copy(block_mean_h, block_mean_h + num_guesses_, mean_h_.begin());
    std::copy(block_m2_h, block_m2_h + num_guesses_, m2_h_.begin());
    std::copy(block_c_ht, block_c_ht + num_guesses_, c_ht_.begin());
    return;
  }
  const double na = static_cast<double>(t_.count());
  const double nb = static_cast<double>(count);
  const double n = na + nb;
  const double coeff = na * nb / n;
  const double dt = mean_t - t_.mean();
  for (std::size_t g = 0; g < num_guesses_; ++g) {
    const double dh = block_mean_h[g] - mean_h_[g];
    c_ht_[g] += block_c_ht[g] + dh * dt * coeff;
    m2_h_[g] += block_m2_h[g] + dh * dh * coeff;
    mean_h_[g] += dh * (nb / n);
  }
  t_.merge(block);
}

void StreamingCpa::merge(const StreamingCpa& other) {
  SABLE_REQUIRE(num_guesses_ == other.num_guesses_ &&
                    model_ == other.model_ && bit_ == other.bit_,
                "merge requires identically configured CPA accumulators");
  // Same-spec check: model/bit alone would let two different same-width
  // S-boxes merge into meaningless co-moments. Copies of one prototype
  // share the table, so the pointer comparison is the common fast path.
  SABLE_REQUIRE(predictions_ == other.predictions_ ||
                    *predictions_ == *other.predictions_,
                "merge requires accumulators over the same S-box spec");
  if (other.t_.count() == 0) return;
  fold_block(other.t_.count(), other.t_.mean(), other.t_.m2(),
             other.mean_h_.data(), other.m2_h_.data(), other.c_ht_.data());
}

AttackResult StreamingCpa::result() const {
  std::vector<double> scores(num_guesses_, 0.0);
  for (std::size_t g = 0; g < num_guesses_; ++g) {
    if (m2_h_[g] > 0.0 && t_.m2() > 0.0) {
      scores[g] = std::fabs(c_ht_[g] / std::sqrt(m2_h_[g] * t_.m2()));
    }
  }
  return make_attack_result(std::move(scores));
}

void StreamingCpa::save(ByteWriter& writer) const {
  writer.u32(kCpaTag);
  writer.u64(num_guesses_);
  writer.u32(static_cast<std::uint32_t>(model_));
  writer.u64(bit_);
  t_.save(writer);
  writer.f64s(mean_h_.data(), num_guesses_);
  writer.f64s(m2_h_.data(), num_guesses_);
  writer.f64s(c_ht_.data(), num_guesses_);
}

void StreamingCpa::load(ByteReader& reader) {
  SABLE_REQUIRE(reader.u32() == kCpaTag,
                "serialized state is not a CPA accumulator");
  SABLE_REQUIRE(reader.u64() == num_guesses_ &&
                    reader.u32() == static_cast<std::uint32_t>(model_) &&
                    reader.u64() == bit_,
                "serialized CPA state was produced by a differently "
                "configured accumulator (guess count, model or bit)");
  t_.load(reader);
  reader.f64s(mean_h_.data(), num_guesses_);
  reader.f64s(m2_h_.data(), num_guesses_);
  reader.f64s(c_ht_.data(), num_guesses_);
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
  double* sum0 = scratch.sum_h.data();
  double* sum1 = scratch.sum_h2.data();
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

// ---- StreamingMultiCpa ----------------------------------------------------

StreamingMultiCpa::StreamingMultiCpa(const SboxSpec& spec, PowerModel model,
                                     std::size_t width, std::size_t bit)
    : num_guesses_(std::size_t{1} << spec.in_bits),
      num_plaintexts_(num_guesses_),
      width_(width),
      model_(model),
      bit_(bit),
      predictions_(shared_prediction_table(spec, model, bit)),
      mean_h_(num_guesses_, 0.0),
      m2_h_(num_guesses_, 0.0),
      t_(width),
      c_ht_(width * num_guesses_, 0.0) {
  SABLE_REQUIRE(width > 0, "multisample CPA requires at least one column");
}

void StreamingMultiCpa::add_block(const std::uint8_t* pts, const double* rows,
                                  std::size_t count) {
  if (count == 0) return;
  BlockScratch& scratch = block_scratch(width_, num_guesses_);
  // Per-column shifts from the block's first row (see the scalar path).
  for (std::size_t l = 0; l < width_; ++l) scratch.shifts[l] = rows[l];
  detail::block_histogram_sampled(pts, rows, count, width_,
                                  scratch.shifts.data(),
                                  scratch.counts.data(), scratch.sums.data(),
                                  scratch.sum_sq.data());
  detail::require_block_pts(scratch.counts.data(), num_plaintexts_);
  const double* pred = predictions_->data();
  detail::block_contract_counts(pred, scratch.counts.data(),
                                num_plaintexts_, num_guesses_,
                                scratch.sum_h.data(), scratch.sum_h2.data());
  detail::block_contract_sums(pred, scratch.sums.data(),
                              scratch.counts.data(), num_plaintexts_, width_,
                              num_guesses_, scratch.r.data());
  // Convert to Welford form: per-column totals and moments, then the
  // shared prediction moments, then the per-column co-moments in place.
  const double n = static_cast<double>(count);
  for (std::size_t l = 0; l < width_; ++l) {
    double t_sum = 0.0;
    for (std::size_t p = 0; p < num_plaintexts_; ++p) {
      t_sum += scratch.sums[p * width_ + l];
    }
    scratch.col_sum[l] = t_sum;
    scratch.col_mean[l] = scratch.shifts[l] + t_sum / n;
    scratch.col_m2[l] =
        std::max(0.0, scratch.sum_sq[l] - t_sum * t_sum / n);
  }
  for (std::size_t g = 0; g < num_guesses_; ++g) {
    const double mh = scratch.sum_h[g] / n;
    scratch.sum_h[g] = mh;
    scratch.sum_h2[g] = std::max(0.0, scratch.sum_h2[g] - mh * mh * n);
  }
  for (std::size_t l = 0; l < width_; ++l) {
    double* rl = scratch.r.data() + l * num_guesses_;
    const double t_sum = scratch.col_sum[l];
    for (std::size_t g = 0; g < num_guesses_; ++g) {
      rl[g] -= scratch.sum_h[g] * t_sum;
    }
  }
  fold_block(count, scratch.col_mean.data(), scratch.col_m2.data(),
             scratch.sum_h.data(), scratch.sum_h2.data(),
             scratch.r.data());
}

void StreamingMultiCpa::fold_block(std::size_t count, const double* mean_t,
                                   const double* m2_t,
                                   const double* block_mean_h,
                                   const double* block_m2_h,
                                   const double* block_c_ht) {
  if (n_ == 0) {
    n_ = count;
    std::copy(block_mean_h, block_mean_h + num_guesses_, mean_h_.begin());
    std::copy(block_m2_h, block_m2_h + num_guesses_, m2_h_.begin());
    std::copy(block_c_ht, block_c_ht + width_ * num_guesses_, c_ht_.begin());
    for (std::size_t s = 0; s < width_; ++s) {
      t_[s] = OnlineMoments::from_parts(count, mean_t[s], m2_t[s]);
    }
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(count);
  const double n = na + nb;
  const double coeff = na * nb / n;
  // Column co-moments first: they need both sides' pre-merge means.
  for (std::size_t s = 0; s < width_; ++s) {
    const double dt = mean_t[s] - t_[s].mean();
    double* c = c_ht_.data() + s * num_guesses_;
    const double* oc = block_c_ht + s * num_guesses_;
    for (std::size_t g = 0; g < num_guesses_; ++g) {
      c[g] += oc[g] + (block_mean_h[g] - mean_h_[g]) * dt * coeff;
    }
  }
  for (std::size_t g = 0; g < num_guesses_; ++g) {
    const double dh = block_mean_h[g] - mean_h_[g];
    m2_h_[g] += block_m2_h[g] + dh * dh * coeff;
    mean_h_[g] += dh * (nb / n);
  }
  for (std::size_t s = 0; s < width_; ++s) {
    t_[s].merge(OnlineMoments::from_parts(count, mean_t[s], m2_t[s]));
  }
  n_ += count;
}

void StreamingMultiCpa::merge(const StreamingMultiCpa& other) {
  SABLE_REQUIRE(num_guesses_ == other.num_guesses_ &&
                    width_ == other.width_ && model_ == other.model_ &&
                    bit_ == other.bit_,
                "merge requires identically configured multi-CPA accumulators");
  SABLE_REQUIRE(predictions_ == other.predictions_ ||
                    *predictions_ == *other.predictions_,
                "merge requires accumulators over the same S-box spec");
  if (other.n_ == 0) return;
  BlockScratch& scratch = block_scratch(width_, num_guesses_);
  for (std::size_t s = 0; s < width_; ++s) {
    scratch.col_mean[s] = other.t_[s].mean();
    scratch.col_m2[s] = other.t_[s].m2();
  }
  fold_block(other.n_, scratch.col_mean.data(), scratch.col_m2.data(),
             other.mean_h_.data(), other.m2_h_.data(), other.c_ht_.data());
}

void StreamingMultiCpa::save(ByteWriter& writer) const {
  writer.u32(kMultiCpaTag);
  writer.u64(num_guesses_);
  writer.u32(static_cast<std::uint32_t>(model_));
  writer.u64(bit_);
  writer.u64(width_);
  writer.u64(n_);
  writer.f64s(mean_h_.data(), num_guesses_);
  writer.f64s(m2_h_.data(), num_guesses_);
  for (const OnlineMoments& column : t_) column.save(writer);
  writer.f64s(c_ht_.data(), width_ * num_guesses_);
}

void StreamingMultiCpa::load(ByteReader& reader) {
  SABLE_REQUIRE(reader.u32() == kMultiCpaTag,
                "serialized state is not a multisample CPA accumulator");
  SABLE_REQUIRE(reader.u64() == num_guesses_ &&
                    reader.u32() == static_cast<std::uint32_t>(model_) &&
                    reader.u64() == bit_ && reader.u64() == width_,
                "serialized multisample CPA state was produced by a "
                "differently configured accumulator (guess count, model, "
                "bit or width)");
  n_ = reader.u64();
  reader.f64s(mean_h_.data(), num_guesses_);
  reader.f64s(m2_h_.data(), num_guesses_);
  for (OnlineMoments& column : t_) column.load(reader);
  reader.f64s(c_ht_.data(), width_ * num_guesses_);
}

MultiAttackResult StreamingMultiCpa::result() const {
  MultiAttackResult result;
  std::vector<double> combined(num_guesses_, 0.0);
  double global_best = -1.0;
  for (std::size_t s = 0; s < width_; ++s) {
    for (std::size_t g = 0; g < num_guesses_; ++g) {
      double score = 0.0;
      if (m2_h_[g] > 0.0 && t_[s].m2() > 0.0) {
        score = std::fabs(c_ht_[s * num_guesses_ + g] /
                          std::sqrt(m2_h_[g] * t_[s].m2()));
      }
      combined[g] = std::max(combined[g], score);
      if (score > global_best) {
        global_best = score;
        result.best_sample = s;
      }
    }
  }
  result.combined = make_attack_result(std::move(combined));
  return result;
}

}  // namespace sable
