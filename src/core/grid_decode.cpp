#include "core/grid_decode.hpp"

#include "common/error.hpp"

namespace ttlg {

void GridDecoder::init(const std::vector<Index>& extents,
                       const std::vector<Index>& in_strides,
                       const std::vector<Index>& out_strides) {
  TTLG_CHECK(extents.size() == in_strides.size() &&
                 extents.size() == out_strides.size(),
             "grid decode slot vectors must agree in rank");
  divs_.clear();
  divs_.reserve(extents.size());
  for (Index e : extents) {
    TTLG_CHECK(e >= 1, "grid slot extent must be positive");
    divs_.emplace_back(e);
  }
  in_strides_ = in_strides;
  out_strides_ = out_strides;
}

}  // namespace ttlg
