#include "util/wire.hpp"

#include <bit>
#include <cstring>

namespace rtdls::util {

namespace {

/// Appends `v`'s little-endian bytes with one bulk insert (the byte loop
/// folds into a single store on a little-endian target).
template <typename T>
void append_le(std::vector<std::uint8_t>& out, T v) {
  std::uint8_t bytes[sizeof(T)];
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  out.insert(out.end(), bytes, bytes + sizeof(T));
}

}  // namespace

void WireWriter::u8(std::uint8_t v) { out_->push_back(v); }
void WireWriter::u16(std::uint16_t v) { append_le(*out_, v); }
void WireWriter::u32(std::uint32_t v) { append_le(*out_, v); }
void WireWriter::u64(std::uint64_t v) { append_le(*out_, v); }
void WireWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void WireWriter::string(const std::string& v) {
  if (v.size() > UINT32_MAX) throw WireError("WireWriter: string too long");
  u32(static_cast<std::uint32_t>(v.size()));
  out_->insert(out_->end(), v.begin(), v.end());
}

void WireWriter::bytes(const std::uint8_t* data, std::size_t size) {
  out_->insert(out_->end(), data, data + size);
}

void WireWriter::f64_array(const std::vector<double>& v) {
  if (v.size() > UINT32_MAX) throw WireError("WireWriter: array too long");
  u32(static_cast<std::uint32_t>(v.size()));
  for (double x : v) f64(x);
}

void WireWriter::u64_array(const std::vector<std::uint64_t>& v) {
  if (v.size() > UINT32_MAX) throw WireError("WireWriter: array too long");
  u32(static_cast<std::uint32_t>(v.size()));
  for (std::uint64_t x : v) u64(x);
}

const std::uint8_t* WireReader::need(std::size_t n) {
  if (size_ - offset_ < n) {
    throw WireError("wire: truncated (need " + std::to_string(n) + " bytes, have " +
                    std::to_string(size_ - offset_) + ")");
  }
  const std::uint8_t* at = data_ + offset_;
  offset_ += n;
  return at;
}

std::uint8_t WireReader::u8() { return *need(1); }

std::uint16_t WireReader::u16() {
  const std::uint8_t* p = need(2);
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t WireReader::u32() {
  const std::uint8_t* p = need(4);
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t WireReader::u64() {
  const std::uint8_t* p = need(8);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

double WireReader::f64() { return std::bit_cast<double>(u64()); }

std::string WireReader::string() {
  const std::uint32_t n = u32();
  // Validate the prefix against what is actually left before allocating:
  // a hostile length costs an exception, never an allocation.
  if (n > remaining()) throw WireError("wire: string length exceeds payload");
  const std::uint8_t* p = need(n);
  return std::string(reinterpret_cast<const char*>(p), n);
}

std::vector<double> WireReader::f64_array() {
  const std::uint32_t n = u32();
  if (static_cast<std::uint64_t>(n) * 8 > remaining()) {
    throw WireError("wire: array length exceeds payload");
  }
  std::vector<double> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(f64());
  return v;
}

std::vector<std::uint64_t> WireReader::u64_array() {
  const std::uint32_t n = u32();
  if (static_cast<std::uint64_t>(n) * 8 > remaining()) {
    throw WireError("wire: array length exceeds payload");
  }
  std::vector<std::uint64_t> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(u64());
  return v;
}

void WireReader::expect_done() const {
  if (offset_ != size_) {
    throw WireError("wire: " + std::to_string(size_ - offset_) + " trailing bytes");
  }
}

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace rtdls::util
