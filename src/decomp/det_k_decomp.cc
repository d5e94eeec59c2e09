#include "decomp/det_k_decomp.h"

#include "decomp/cost_k_decomp.h"

namespace htqo {

Result<Hypertree> DetKDecomp(const Hypergraph& h, std::size_t k,
                             const Bitset* root_conn,
                             ResourceGovernor* governor) {
  return SearchDecomposition(h, k, /*model=*/nullptr, root_conn, governor);
}

Result<std::size_t> ComputeHypertreeWidth(const Hypergraph& h,
                                          std::size_t max_k,
                                          ResourceGovernor* governor) {
  if (h.NumEdges() == 0) return std::size_t{0};
  for (std::size_t k = 1; k <= max_k; ++k) {
    auto hd = DetKDecomp(h, k, nullptr, governor);
    if (hd.ok()) return k;
    if (hd.status().code() == StatusCode::kDeadlineExceeded) {
      return hd.status();
    }
  }
  return Status::NotFound("hypertree width exceeds " + std::to_string(max_k));
}

}  // namespace htqo
