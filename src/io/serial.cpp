#include "io/serial.hpp"

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#define SABLE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define SABLE_HAVE_MMAP 0
#endif

namespace sable {

namespace {

// Scalars are composed byte by byte (endian-independent); the bulk f64
// array paths memcpy whole spans, which assumes a little-endian host —
// checked here rather than silently producing byte-swapped files on the
// (hypothetical) big-endian port.
static_assert(std::endian::native == std::endian::little,
              "sable file formats are little-endian; the bulk array paths "
              "need byte-swapping on big-endian hosts");

// Appends v's little-endian bytes to `buf` in one step. The bytes are
// composed by shifts (endian-independent); the compiler folds them into
// one store.
template <typename T>
void append_le(std::vector<std::uint8_t>& buf, T v) {
  std::uint8_t bytes[sizeof(T)];
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  buf.insert(buf.end(), bytes, bytes + sizeof(T));
}

std::string errno_message(const std::string& action) {
  return action + ": " + std::strerror(errno);
}

}  // namespace

// ---- ByteWriter -----------------------------------------------------------

void ByteWriter::u32(std::uint32_t v) { append_le(buf_, v); }

void ByteWriter::u64(std::uint64_t v) { append_le(buf_, v); }

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + size);
}

void ByteWriter::f64s(const double* data, std::size_t count) {
  bytes(data, count * sizeof(double));
}

void ByteWriter::pad_to(std::size_t alignment) {
  while (buf_.size() % alignment != 0) buf_.push_back(0);
}

void ByteWriter::patch_u64(std::size_t offset, std::uint64_t v) {
  SABLE_ASSERT(offset + 8 <= buf_.size(),
               "patch_u64 offset must lie inside the written buffer");
  for (int i = 0; i < 8; ++i) {
    buf_[offset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void write_file_atomically(
    const std::string& path,
    std::span<const std::span<const std::uint8_t>> parts) {
  std::FILE* f = std::fopen((path + ".tmp").c_str(), "wb");
  if (f == nullptr) {
    throw IoError(path, errno_message("cannot create file"));
  }
  bool written = true;
  for (const std::span<const std::uint8_t> part : parts) {
    written = written && (part.empty() || std::fwrite(part.data(), 1,
                                                      part.size(), f) ==
                                              part.size());
  }
  written = written && std::fflush(f) == 0;
  publish_temp_file(f, path, written);
}

void publish_temp_file(std::FILE* file, const std::string& path,
                       bool written) {
  const std::string tmp = path + ".tmp";
  // A close can still report a deferred write error after a good flush;
  // publishing then would replace the previous file with a torn one.
  const bool closed = std::fclose(file) == 0;
  if (!written) {
    std::remove(tmp.c_str());
    throw IoError(path, "short write while saving file");
  }
  if (!closed) {
    std::remove(tmp.c_str());
    throw IoError(path, errno_message("cannot close temporary file"));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw IoError(path, errno_message("cannot rename temporary file"));
  }
}

// ---- MappedFile -----------------------------------------------------------

MappedFile::MappedFile(const std::string& path) : path_(path) {
#if SABLE_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw IoError(path, errno_message("cannot open file"));
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw IoError(path, errno_message("cannot stat file"));
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ > 0) {
    void* p = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (p == MAP_FAILED) {
      ::close(fd);
      throw IoError(path, errno_message("cannot mmap file"));
    }
    data_ = static_cast<const std::uint8_t*>(p);
    mapped_ = true;
  }
  ::close(fd);
#else
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw IoError(path, errno_message("cannot open file"));
  std::fseek(f, 0, SEEK_END);
  const long end = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (end < 0) {
    std::fclose(f);
    throw IoError(path, errno_message("cannot read file size"));
  }
  fallback_.resize(static_cast<std::size_t>(end));
  const std::size_t got =
      fallback_.empty() ? 0 : std::fread(fallback_.data(), 1, fallback_.size(), f);
  std::fclose(f);
  if (got != fallback_.size()) {
    throw IoError(path, "short read while loading file");
  }
  data_ = fallback_.data();
  size_ = fallback_.size();
#endif
}

MappedFile::~MappedFile() {
#if SABLE_HAVE_MMAP
  if (mapped_) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }
#endif
}

// ---- ByteReader -----------------------------------------------------------

void ByteReader::require(std::size_t size) const {
  if (size > remaining()) {
    throw FileTruncatedError(
        path_, "file truncated: need " + std::to_string(size) +
                   " bytes at offset " + std::to_string(offset_) +
                   " but only " + std::to_string(remaining()) + " remain");
  }
}

std::uint8_t ByteReader::u8() {
  require(1);
  return data_[offset_++];
}

std::uint32_t ByteReader::u32() {
  require(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[offset_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  offset_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  require(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[offset_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  offset_ += 8;
  return v;
}

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

void ByteReader::bytes(void* out, std::size_t size) {
  require(size);
  std::memcpy(out, data_ + offset_, size);
  offset_ += size;
}

void ByteReader::f64s(double* out, std::size_t count) {
  bytes(out, count * sizeof(double));
}

const std::uint8_t* ByteReader::view(std::size_t size) {
  require(size);
  const std::uint8_t* p = data_ + offset_;
  offset_ += size;
  return p;
}

void ByteReader::skip(std::size_t size) {
  require(size);
  offset_ += size;
}

std::uint64_t ByteReader::checked_count(std::size_t elem_size) {
  const std::uint64_t count = u64();
  SABLE_ASSERT(elem_size > 0, "checked_count needs a positive element size");
  if (count > remaining() / elem_size) {
    throw BadFileError(
        path_, "corrupt count field: " + std::to_string(count) +
                   " elements of " + std::to_string(elem_size) +
                   " bytes cannot fit in the " +
                   std::to_string(remaining()) + " bytes remaining");
  }
  return count;
}

}  // namespace sable
