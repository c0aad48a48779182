// Bounds-checked binary (de)serialization for the service protocol and the
// snapshot files.
//
// Everything is little-endian with fixed widths, doubles travel as their
// IEEE-754 bit patterns (bit_cast through u64), and strings/arrays are
// u32-length-prefixed. That makes every encoded value an exact round trip -
// the property the snapshot/restore bit-identity guarantee and the framed
// socket protocol both build on - and keeps the format platform-independent
// without a serialization dependency.
//
// WireReader never trusts the input: every read is bounds-checked against
// the remaining bytes and throws WireError instead of walking off the
// buffer, and length prefixes are validated against the remaining payload
// BEFORE any allocation, so a hostile 4 GiB length prefix costs an
// exception, not an allocation. The protocol fuzz tests drive random and
// truncated byte strings straight through these readers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace rtdls::util {

/// Malformed or truncated wire data (bad length prefix, read past the end).
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends fixed-width little-endian values to a byte buffer, each with one
/// bulk insert: the caller's buffer when constructed over one (the frame
/// encoder writes in place), else its own, handed over by take().
class WireWriter {
 public:
  WireWriter() = default;
  explicit WireWriter(std::vector<std::uint8_t>& out) : out_(&out) {}

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);  ///< exact: the IEEE-754 bit pattern via u64

  /// u32 length prefix + raw bytes.
  void string(const std::string& v);
  /// Raw bytes, NO length prefix (appending an already-framed payload);
  /// callers wanting the string() layout write the u32 prefix themselves.
  void bytes(const std::uint8_t* data, std::size_t size);

  /// u32 count prefix + elementwise f64/u64.
  void f64_array(const std::vector<double>& v);
  void u64_array(const std::vector<std::uint64_t>& v);

  const std::vector<std::uint8_t>& buffer() const { return *out_; }
  std::vector<std::uint8_t>& buffer() { return *out_; }
  std::vector<std::uint8_t> take() { return std::move(owned_); }

 private:
  std::vector<std::uint8_t> owned_;
  std::vector<std::uint8_t>* out_ = &owned_;
};

/// Cursor over a byte span; every accessor throws WireError on overrun.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  explicit WireReader(const std::vector<std::uint8_t>& data)
      : data_(data.data()), size_(data.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();

  std::string string();
  std::vector<double> f64_array();
  std::vector<std::uint64_t> u64_array();

  std::size_t remaining() const { return size_ - offset_; }
  bool done() const { return offset_ == size_; }

  /// Asserts the payload was consumed exactly (trailing garbage is as
  /// malformed as truncation for fixed message layouts).
  void expect_done() const;

 private:
  const std::uint8_t* need(std::size_t n);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
};

/// FNV-1a 64-bit over a byte range: the snapshot files' integrity check
/// (detects truncation/corruption; not cryptographic).
std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size);

}  // namespace rtdls::util
