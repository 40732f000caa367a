#include "power/trace.hpp"

#include "util/error.hpp"

namespace sable {

void TraceSet::add(std::uint8_t pt, double sample) {
  SABLE_REQUIRE(pt_width == 1,
                "byte-wide add() requires a 1-byte plaintext layout");
  plaintexts.push_back(pt);
  samples.push_back(sample);
}

void TraceSet::append(const std::uint8_t* pts, const double* values,
                      std::size_t count) {
  plaintexts.insert(plaintexts.end(), pts, pts + count * pt_width);
  samples.insert(samples.end(), values, values + count);
}

void MultiTraceSet::reserve(std::size_t capacity, std::size_t sample_width) {
  plaintexts.reserve(capacity);
  samples.reserve(capacity * sample_width);
}

void MultiTraceSet::add(std::uint8_t pt, const double* row,
                        std::size_t row_width) {
  if (width == 0) width = row_width;
  SABLE_REQUIRE(row_width == width,
                "all traces must have the same sample count");
  plaintexts.push_back(pt);
  samples.insert(samples.end(), row, row + width);
}

TraceSet MultiTraceSet::column(std::size_t sample) const {
  SABLE_REQUIRE(sample < width, "sample index out of range");
  SABLE_REQUIRE(samples.size() == size() * width,
                "time-resolved traces need size() * width samples");
  TraceSet out;
  out.plaintexts = plaintexts;
  out.samples.reserve(size());
  for (std::size_t t = 0; t < size(); ++t) {
    out.samples.push_back(at(t, sample));
  }
  return out;
}

}  // namespace sable
