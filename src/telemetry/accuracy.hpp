// Predicted-vs-measured residual tracking: every plan execution (and
// TTGT contraction) records the §V model's predicted time next to the
// simulator-measured time, keyed by schema — fed by the catalogue's
// model_accuracy/<schema> entries (event.hpp). The aggregate report is the
// runtime counterpart of the paper's Table II model-fit validation and
// the primary tool for debugging model mispredictions.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "telemetry/json.hpp"

namespace ttlg::telemetry {

class ModelAccuracy {
 public:
  /// Record one observation under `key` (typically the schema name).
  /// Relative error is (predicted - measured) / measured; observations
  /// with measured <= 0 are counted but excluded from the ratios.
  void record(std::string_view key, double predicted_s, double measured_s);

  std::int64_t observations(const std::string& key) const;
  bool empty() const;
  void clear();

  /// Per-key stats: n, mean predicted/measured microseconds, mean
  /// absolute relative error, max absolute relative error, signed bias.
  Json to_json() const;
  /// Text table of the same, with an ALL summary row.
  std::string report() const;

  static ModelAccuracy& global();

 private:
  struct Acc {
    std::int64_t n = 0;
    double sum_pred_s = 0;
    double sum_meas_s = 0;
    std::int64_t n_ratio = 0;  ///< observations with measured > 0
    double sum_abs_rel = 0;
    double max_abs_rel = 0;
    double sum_rel = 0;  ///< signed, for bias
  };
  static Json acc_json(const Acc& a);
  void fold(Acc& into, const Acc& a) const;

  mutable std::mutex mu_;
  std::map<std::string, Acc, std::less<>> acc_;
};

}  // namespace ttlg::telemetry
