// POD stream-serialization helpers shared by every binary state format in
// the tree (filter snapshots, emitter/synchronizer state, site
// checkpoints, manifests, dead-letter spills). Same-architecture binary IO:
// fixed-width fields, native endianness, no interchange ambitions — see
// pf/snapshot.h.
//
// Framed sections stream. A section is [u64 length][u32 crc32][payload];
// the writer emits a placeholder header, streams the payload through a
// CRC-updating buffer straight into the sink, then seeks back to patch the
// header — so sinks must be seekable (files, string streams). The reader
// parses through a length-bounded, CRC-computing view and checks the CRC
// before the caller commits anything. Neither side ever holds more than
// one small buffer of a section, whatever its size.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <istream>
#include <limits>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <type_traits>
#include <utility>

#include "util/crc32.h"
#include "util/status.h"

namespace rfid {
namespace serialize {

template <typename T>
inline void WritePod(std::ostream& os, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
inline bool ReadPod(std::istream& is, T* value) {
  static_assert(std::is_trivially_copyable_v<T>);
  is.read(reinterpret_cast<char*>(value), sizeof(T));
  return is.good();
}

/// Reads a bool written as one byte. Only 0 and 1 are encodings: any other
/// byte is corrupt (it would not re-save to itself), and reads as failure.
inline bool ReadBool(std::istream& is, bool* value) {
  uint8_t byte = 0;
  if (!ReadPod(is, &byte) || byte > 1) return false;
  *value = byte != 0;
  return true;
}

/// Sanity cap for serialized element counts: a state blob claiming more
/// than this is corrupt, not big.
constexpr uint64_t kMaxCount = 100'000'000;

/// Sanity cap for framed-section lengths (1 GiB): a section header claiming
/// more is corrupt.
constexpr uint64_t kMaxSectionBytes = uint64_t{1} << 30;

namespace internal {

/// Buffer size of one section view. Smaller than one object's particles at
/// the paper's 1,000-particle budget (36 KB), so a checkpoint's transient
/// memory is a few of these however large the belief grows.
constexpr size_t kSectionBufferBytes = 32 * 1024;

/// Write side of one framed section: buffers payload bytes, folds them into
/// the running CRC and forwards them to the sink's own buffer. A section
/// nested inside another writes to the same sink, bypassing its parent,
/// and folds its header and payload CRC into the parent when it closes.
class SectionSink final : public std::streambuf {
 public:
  explicit SectionSink(std::streambuf* sink)
      : sink_(sink), buffer_(new char[kSectionBufferBytes]) {
    setp(buffer_.get(), buffer_.get() + kSectionBufferBytes);
  }

  std::streambuf* sink() const { return sink_; }
  uint32_t crc() const { return crc_; }
  uint64_t length() const { return length_; }

  /// Pushes buffered payload bytes through the CRC into the sink.
  bool Drain() {
    const std::streamsize n = pptr() - pbase();
    if (n == 0) return ok_;
    crc_ = Crc32(pbase(), static_cast<size_t>(n), crc_);
    length_ += static_cast<uint64_t>(n);
    ok_ = ok_ && sink_->sputn(pbase(), n) == n;
    setp(buffer_.get(), buffer_.get() + kSectionBufferBytes);
    return ok_;
  }

  /// Appends bytes that went to the sink directly (a nested section) to
  /// this section's length and CRC.
  void Fold(uint32_t crc, uint64_t length) {
    crc_ = Crc32Combine(crc_, crc, length);
    length_ += length;
  }

 protected:
  int_type overflow(int_type ch) override {
    if (!Drain()) return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }
  int sync() override { return Drain() ? 0 : -1; }

 private:
  std::streambuf* sink_;
  std::unique_ptr<char[]> buffer_;
  uint32_t crc_ = 0;
  uint64_t length_ = 0;
  bool ok_ = true;
};

/// Read side of one framed section: hands out at most `length` bytes of the
/// source, computing their CRC as they are pulled. Verify() reads whatever
/// the parser left unread and checks the length and checksum; it is
/// idempotent, and remembers how many bytes the parser had left as
/// trailing().
class SectionSource final : public std::streambuf {
 public:
  SectionSource(std::streambuf* source, uint64_t length, uint32_t expected_crc)
      : source_(source),
        unread_(length),
        expected_crc_(expected_crc),
        buffer_(new char[kSectionBufferBytes]) {
    setg(buffer_.get(), buffer_.get(), buffer_.get());
  }

  /// Section bytes the parser has not consumed yet.
  uint64_t remaining() const {
    return unread_ + static_cast<uint64_t>(egptr() - gptr());
  }

  uint64_t trailing() const { return trailing_; }

  Status Verify() {
    if (!verified_) {
      verified_ = true;
      trailing_ = remaining();
      while (!traits_type::eq_int_type(underflow(), traits_type::eof())) {
        setg(eback(), egptr(), egptr());
      }
      if (unread_ != 0) {
        verdict_ = Status::IOError("truncated section body");
      } else if (crc_ != expected_crc_) {
        verdict_ = Status::Invalid("section checksum mismatch (corrupt bytes)");
      }
    }
    return verdict_;
  }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (unread_ == 0) return traits_type::eof();
    const std::streamsize want = static_cast<std::streamsize>(
        std::min<uint64_t>(unread_, kSectionBufferBytes));
    const std::streamsize got = source_->sgetn(buffer_.get(), want);
    if (got <= 0) return traits_type::eof();  // Truncated source.
    crc_ = Crc32(buffer_.get(), static_cast<size_t>(got), crc_);
    unread_ -= static_cast<uint64_t>(got);
    setg(buffer_.get(), buffer_.get(), buffer_.get() + got);
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::streambuf* source_;
  uint64_t unread_;
  uint32_t expected_crc_;
  std::unique_ptr<char[]> buffer_;
  uint32_t crc_ = 0;
  bool verified_ = false;
  uint64_t trailing_ = 0;
  Status verdict_;
};

/// Verifies a section and that its parser consumed all of it: bytes a
/// parser never reads would be dropped on re-save, so they are corrupt.
inline Status VerifyFullyParsed(SectionSource* source) {
  RFID_RETURN_NOT_OK(source->Verify());
  if (source->trailing() != 0) {
    return Status::Invalid("framed section has " +
                           std::to_string(source->trailing()) +
                           " trailing bytes its parser did not consume");
  }
  return Status::OK();
}

inline bool WriteRaw(std::streambuf* sink, const void* data, size_t size) {
  const auto n = static_cast<std::streamsize>(size);
  return sink->sputn(static_cast<const char*>(data), n) == n;
}

}  // namespace internal

/// Bytes a parser can still read from `is`: what is left of the innermost
/// framed section it reads from, else what is left of a seekable source.
/// Unknown (max) for anything else.
inline uint64_t BytesLeft(std::istream& is) {
  std::streambuf* buf = is.rdbuf();
  if (const auto* section = dynamic_cast<internal::SectionSource*>(buf)) {
    return section->remaining();
  }
  constexpr uint64_t kUnknown = std::numeric_limits<uint64_t>::max();
  if (buf == nullptr) return kUnknown;
  const auto in = std::ios_base::in;
  const std::streampos here = buf->pubseekoff(0, std::ios_base::cur, in);
  if (here == std::streampos(-1)) return kUnknown;
  const std::streampos end = buf->pubseekoff(0, std::ios_base::end, in);
  buf->pubseekpos(here, in);
  if (end == std::streampos(-1) || end < here) return kUnknown;
  return static_cast<uint64_t>(end - here);
}

/// Reads an element count and bounds it before anything is allocated:
/// `count` elements of at least `min_element_bytes` serialized bytes each
/// must fit in the bytes left. False on truncation or an impossible count.
inline bool ReadCount(std::istream& is, uint64_t* count,
                      uint64_t min_element_bytes) {
  if (!ReadPod(is, count)) return false;
  const uint64_t fit = BytesLeft(is) / std::max<uint64_t>(min_element_bytes, 1);
  return *count <= kMaxCount && *count <= fit;
}

/// Writes one CRC-framed section, [u64 length][u32 crc32][payload], with
/// `write_payload(std::ostream&)` streaming the payload (it may return a
/// Status). Requires a seekable sink: the header is patched once the
/// payload is written. A section opened on another section's payload
/// stream nests — the only nested case is a filter snapshot inside a site
/// checkpoint.
template <typename WritePayload>
Status WriteFramedSection(std::ostream& os, WritePayload&& write_payload) {
  auto* parent = dynamic_cast<internal::SectionSink*>(os.rdbuf());
  if (parent != nullptr && !parent->Drain()) {
    return Status::IOError("failed writing framed section");
  }
  std::streambuf* sink = parent != nullptr ? parent->sink() : os.rdbuf();
  const auto out = std::ios_base::out;
  const std::streampos header_pos =
      sink == nullptr || !os.good()
          ? std::streampos(-1)
          : sink->pubseekoff(0, std::ios_base::cur, out);
  if (header_pos == std::streampos(-1)) {
    os.setstate(std::ios_base::badbit);
    return Status::IOError("framed sections need a good, seekable sink");
  }
  char header[sizeof(uint64_t) + sizeof(uint32_t)] = {};
  bool ok = internal::WriteRaw(sink, header, sizeof(header));

  internal::SectionSink section(sink);
  std::ostream payload(&section);
  if constexpr (std::is_same_v<decltype(write_payload(payload)), Status>) {
    const Status status = write_payload(payload);
    if (!status.ok()) {
      os.setstate(std::ios_base::badbit);
      return status;
    }
  } else {
    write_payload(payload);
  }
  ok = ok && payload.good() && section.Drain();

  const uint64_t length = section.length();
  const uint32_t crc = section.crc();
  std::memcpy(header, &length, sizeof(length));
  std::memcpy(header + sizeof(length), &crc, sizeof(crc));
  const std::streampos end_pos =
      ok ? sink->pubseekoff(0, std::ios_base::cur, out) : std::streampos(-1);
  ok = end_pos != std::streampos(-1) &&
       sink->pubseekpos(header_pos, out) == header_pos &&
       internal::WriteRaw(sink, header, sizeof(header)) &&
       sink->pubseekpos(end_pos, out) == end_pos;
  if (!ok) {
    os.setstate(std::ios_base::badbit);
    return Status::IOError("failed writing framed section");
  }
  if (parent != nullptr) {
    parent->Fold(Crc32(header, sizeof(header)), sizeof(header));
    parent->Fold(crc, length);
  }
  return Status::OK();
}

/// Reads one framed section, handing `parse(std::istream&)` a view of
/// exactly its payload; `parse` returns a Status, must consume the whole
/// payload and must not commit anything — the CRC is checked after it
/// returns. Distinguishes truncation (IOError) from corruption
/// (InvalidArgument: length insanity, checksum mismatch, trailing bytes); a
/// parse error on bytes that fail the checksum reports the checksum.
template <typename Parse>
Status ReadFramedSection(std::istream& is, Parse&& parse) {
  uint64_t length = 0;
  uint32_t expected_crc = 0;
  if (!ReadPod(is, &length)) {
    return Status::IOError("truncated section header");
  }
  if (length > kMaxSectionBytes) {
    return Status::Invalid("section length " + std::to_string(length) +
                           " exceeds sanity cap (corrupt header)");
  }
  if (!ReadPod(is, &expected_crc)) {
    return Status::IOError("truncated section header");
  }
  if (length > BytesLeft(is)) return Status::IOError("truncated section body");
  internal::SectionSource source(is.rdbuf(), length, expected_crc);
  std::istream section(&source);
  const Status parsed = parse(section);
  RFID_RETURN_NOT_OK(source.Verify());
  RFID_RETURN_NOT_OK(parsed);
  return internal::VerifyFullyParsed(&source);
}

/// Verifies the framed section `section` reads from (see ReadFramedSection)
/// ahead of the parser's return: lets a parser check its enclosing
/// section's CRC, and that nothing trails what it parsed, right before it
/// commits. OK for a stream that is not a section view.
inline Status VerifySection(std::istream& section) {
  auto* source = dynamic_cast<internal::SectionSource*>(section.rdbuf());
  return source != nullptr ? internal::VerifyFullyParsed(source) : Status::OK();
}

}  // namespace serialize
}  // namespace rfid
