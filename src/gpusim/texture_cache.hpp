// Direct-mapped read-only (texture) cache model. TTLG maps its offset
// indirection arrays to texture memory; the paper reports >99% hit
// rates because the arrays are shared by all thread blocks. Misses are
// charged as DRAM traffic by the timing model.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/fastdiv.hpp"

namespace ttlg::sim {

class TextureCache {
 public:
  TextureCache(std::int64_t num_lines, std::int64_t line_bytes);

  /// Record an access to the cache line containing the given device byte
  /// address. Returns true on hit.
  bool access(std::int64_t byte_addr) {
    return access_line(line_div_.div(byte_addr));
  }

  /// Record an access by line id directly — the analysis layer already
  /// works in line ids, so this skips the byte round-trip (a multiply
  /// at the call site plus a divide here).
  bool access_line(std::int64_t line) {
    memo_data_ = nullptr;
    return probe(line);
  }

  /// Replay a list of line ids in order — the class-invariant texture
  /// lines of a compiled block program — and return its misses.
  ///
  /// Memoized and exact: in a direct-mapped cache, replaying a list L
  /// leaves each slot that L touches holding the last line of L mapped
  /// to it and touches no other slot. Replaying L again right after L
  /// therefore misses the same m(L) times whatever came before, and
  /// leaves the state unchanged. When the previous operation on this
  /// cache was a replay of the same span, the call adds m(L) to the
  /// totals instead of probing (m(L) is measured on the first repeat).
  /// access(), access_line() and reset() break the chain. A span is
  /// identified by its address and length, so its contents must stay
  /// unchanged for the lifetime of the cache.
  std::int64_t replay(std::span<const std::int64_t> lines);

  void reset();

  std::int64_t line_bytes() const { return line_bytes_; }
  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }

 private:
  bool probe(std::int64_t line) {
    const std::size_t slot = static_cast<std::size_t>(slot_div_.mod(line));
    if (tags_[slot] == line) {
      ++hits_;
      return true;
    }
    tags_[slot] = line;
    ++misses_;
    return false;
  }

  std::int64_t line_bytes_;
  /// Geometry is a runtime device property, so the per-access / and %
  /// are magic-number divisions (see common/fastdiv.hpp).
  FastDiv line_div_;
  FastDiv slot_div_;
  std::vector<std::int64_t> tags_;  // -1 == invalid
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  /// The span of the last operation when it was a replay (else null),
  /// and its repeat miss count m(L) once measured (-1 until then).
  const std::int64_t* memo_data_ = nullptr;
  std::size_t memo_size_ = 0;
  std::int64_t memo_misses_ = -1;
};

}  // namespace ttlg::sim
