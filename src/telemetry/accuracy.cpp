#include "telemetry/accuracy.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/table.hpp"

namespace ttlg::telemetry {

void ModelAccuracy::record(std::string_view key, double predicted_s,
                           double measured_s) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = acc_.find(key);
  if (it == acc_.end()) it = acc_.try_emplace(std::string(key)).first;
  Acc& a = it->second;
  ++a.n;
  a.sum_pred_s += predicted_s;
  a.sum_meas_s += measured_s;
  if (measured_s > 0) {
    const double rel = (predicted_s - measured_s) / measured_s;
    ++a.n_ratio;
    a.sum_abs_rel += std::abs(rel);
    a.max_abs_rel = std::max(a.max_abs_rel, std::abs(rel));
    a.sum_rel += rel;
  }
}

std::int64_t ModelAccuracy::observations(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = acc_.find(key);
  return it == acc_.end() ? 0 : it->second.n;
}

bool ModelAccuracy::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return acc_.empty();
}

void ModelAccuracy::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  acc_.clear();
}

void ModelAccuracy::fold(Acc& into, const Acc& a) const {
  into.n += a.n;
  into.sum_pred_s += a.sum_pred_s;
  into.sum_meas_s += a.sum_meas_s;
  into.n_ratio += a.n_ratio;
  into.sum_abs_rel += a.sum_abs_rel;
  into.max_abs_rel = std::max(into.max_abs_rel, a.max_abs_rel);
  into.sum_rel += a.sum_rel;
}

Json ModelAccuracy::acc_json(const Acc& a) {
  Json j = Json::object();
  j["n"] = a.n;
  j["mean_predicted_us"] = a.n ? a.sum_pred_s / a.n * 1e6 : 0.0;
  j["mean_measured_us"] = a.n ? a.sum_meas_s / a.n * 1e6 : 0.0;
  j["mean_abs_rel_err"] = a.n_ratio ? a.sum_abs_rel / a.n_ratio : 0.0;
  j["max_abs_rel_err"] = a.max_abs_rel;
  j["bias_rel_err"] = a.n_ratio ? a.sum_rel / a.n_ratio : 0.0;
  return j;
}

Json ModelAccuracy::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json out = Json::object();
  Acc all;
  for (const auto& [key, a] : acc_) {
    out[key] = acc_json(a);
    fold(all, a);
  }
  if (!acc_.empty()) out["ALL"] = acc_json(all);
  return out;
}

std::string ModelAccuracy::report() const {
  const Json j = to_json();
  Table t({"schema", "n", "mean_pred_us", "mean_meas_us", "mean_abs_err%",
           "max_abs_err%", "bias%"});
  for (const auto& [key, a] : j.items()) {
    t.add_row({key, Table::num(a.at("n").as_int()),
               Table::num(a.at("mean_predicted_us").as_double(), 2),
               Table::num(a.at("mean_measured_us").as_double(), 2),
               Table::num(a.at("mean_abs_rel_err").as_double() * 100, 1),
               Table::num(a.at("max_abs_rel_err").as_double() * 100, 1),
               Table::num(a.at("bias_rel_err").as_double() * 100, 1)});
  }
  std::ostringstream os;
  t.print(os);
  return os.str();
}

ModelAccuracy& ModelAccuracy::global() {
  static ModelAccuracy accuracy;
  return accuracy;
}

}  // namespace ttlg::telemetry
