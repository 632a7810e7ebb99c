#include "gpusim/texture_cache.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace ttlg::sim {

TextureCache::TextureCache(std::int64_t num_lines, std::int64_t line_bytes)
    : line_bytes_(line_bytes),
      line_div_(line_bytes > 0 ? line_bytes : 1),
      slot_div_(num_lines > 0 ? num_lines : 1),
      tags_(static_cast<std::size_t>(num_lines), -1) {
  TTLG_CHECK(num_lines > 0 && line_bytes > 0,
             "texture cache needs positive geometry");
}

std::int64_t TextureCache::replay(std::span<const std::int64_t> lines) {
  if (lines.empty()) return 0;
  const std::int64_t n = static_cast<std::int64_t>(lines.size());
  const bool repeat =
      lines.data() == memo_data_ && lines.size() == memo_size_;
  if (repeat && memo_misses_ >= 0) {
    hits_ += n - memo_misses_;
    misses_ += memo_misses_;
    return memo_misses_;
  }
  std::int64_t m = 0;
  for (const std::int64_t line : lines) {
    if (!probe(line)) ++m;
  }
  if (repeat) {
    memo_misses_ = m;
  } else {
    memo_data_ = lines.data();
    memo_size_ = lines.size();
    memo_misses_ = -1;
  }
  return m;
}

void TextureCache::reset() {
  std::fill(tags_.begin(), tags_.end(), std::int64_t{-1});
  hits_ = 0;
  misses_ = 0;
  memo_data_ = nullptr;
}

}  // namespace ttlg::sim
