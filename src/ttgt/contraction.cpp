#include "ttgt/contraction.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "tensor/fusion.hpp"
#include "telemetry/event.hpp"
#include "ttgt/gemm_kernel.hpp"

namespace ttlg::ttgt {
namespace {

bool contains(const std::string& s, char c) {
  return s.find(c) != std::string::npos;
}

/// Letters of `universe` kept in the order they appear in `order`.
std::string filter_order(const std::string& order,
                         const std::string& universe) {
  std::string out;
  for (char c : order)
    if (contains(universe, c)) out.push_back(c);
  return out;
}

Index extent_product(const std::string& letters,
                     const std::map<char, Index>& extents) {
  Index v = 1;
  for (char c : letters) v *= extents.at(c);
  return v;
}

/// Permutation taking tensor dims laid out as `from` into layout `to`:
/// output dim j of the transposition is input dim position_of(to[j]).
Permutation layout_permutation(const std::string& from,
                               const std::string& to) {
  TTLG_ASSERT(from.size() == to.size(), "layout letter sets must match");
  std::vector<Index> p;
  p.reserve(to.size());
  for (char c : to) {
    const auto pos = from.find(c);
    TTLG_ASSERT(pos != std::string::npos, "layout letter missing");
    p.push_back(static_cast<Index>(pos));
  }
  return Permutation(std::move(p));
}

bool is_effectively_identity(const Shape& shape, const Permutation& perm) {
  return scaled_rank(shape, perm) == 1 || perm.is_identity();
}

Shape shape_of(const std::string& letters,
               const std::map<char, Index>& extents) {
  Extents e;
  for (char c : letters) e.push_back(extents.at(c));
  return Shape(std::move(e));
}

}  // namespace

ContractionSpec ContractionSpec::parse(const std::string& text) {
  const auto arrow = text.find("->");
  TTLG_CHECK(arrow != std::string::npos,
             "contraction spec needs '->' (e.g. \"iak,kbj->abij\")");
  const auto comma = text.find(',');
  TTLG_CHECK(comma != std::string::npos && comma < arrow,
             "contraction spec needs two comma-separated inputs");

  ContractionSpec s;
  s.a_indices = text.substr(0, comma);
  s.b_indices = text.substr(comma + 1, arrow - comma - 1);
  s.c_indices = text.substr(arrow + 2);
  TTLG_CHECK(!s.a_indices.empty() && !s.b_indices.empty(),
             "empty operand index list");

  for (const std::string* op : {&s.a_indices, &s.b_indices, &s.c_indices}) {
    std::set<char> seen;
    for (char c : *op) {
      TTLG_CHECK(c >= 'a' && c <= 'z',
                 std::string("indices must be lowercase letters, got '") + c +
                     "'");
      TTLG_CHECK(seen.insert(c).second,
                 std::string("index '") + c + "' repeated within an operand");
    }
  }
  for (char c : s.a_indices) {
    const bool in_b = contains(s.b_indices, c);
    const bool in_c = contains(s.c_indices, c);
    TTLG_CHECK(in_b || in_c, std::string("index '") + c +
                                 "' appears only in A (no trace support)");
    if (in_b && !in_c) s.contracted.push_back(c);
    if (in_c) {
      TTLG_CHECK(!in_b, std::string("batch index '") + c +
                            "' (in A, B and C) is not supported");
      s.free_a.push_back(c);
    }
  }
  for (char c : s.b_indices) {
    const bool in_a = contains(s.a_indices, c);
    const bool in_c = contains(s.c_indices, c);
    TTLG_CHECK(in_a || in_c, std::string("index '") + c +
                                 "' appears only in B (no trace support)");
    if (!in_a && in_c) s.free_b.push_back(c);
  }
  for (char c : s.c_indices) {
    TTLG_CHECK(contains(s.a_indices, c) || contains(s.b_indices, c),
               std::string("output index '") + c +
                   "' appears in neither input");
  }
  TTLG_CHECK(s.c_indices.size() == s.free_a.size() + s.free_b.size(),
             "output indices must be exactly the free indices");
  return s;
}

std::string TtgtPlan::describe() const {
  std::ostringstream os;
  os << "TTGT plan: GEMM " << m << "x" << n << "x" << k << "\n";
  for (const auto& st : steps) {
    os << "  " << st.what;
    if (!st.perm.empty()) os << " " << st.perm;
    if (st.skipped) {
      os << "  [skipped: already GEMM-ready]";
    } else {
      os << "  ~" << st.predicted_s * 1e6 << " us";
    }
    os << "\n";
  }
  os << "  predicted total ~" << predicted_total_s * 1e6 << " us";
  return os.str();
}

TtgtPlan plan_ttgt(const sim::DeviceProperties& props,
                   const ContractionSpec& spec, const Shape& a_shape,
                   const Shape& b_shape, const PlanOptions& opts) {
  TTLG_CHECK(a_shape.rank() == static_cast<Index>(spec.a_indices.size()),
             "A shape rank does not match the spec");
  TTLG_CHECK(b_shape.rank() == static_cast<Index>(spec.b_indices.size()),
             "B shape rank does not match the spec");

  std::map<char, Index> extents;
  for (std::size_t d = 0; d < spec.a_indices.size(); ++d)
    extents[spec.a_indices[d]] = a_shape.extent(static_cast<Index>(d));
  for (std::size_t d = 0; d < spec.b_indices.size(); ++d) {
    const char c = spec.b_indices[d];
    const Index e = b_shape.extent(static_cast<Index>(d));
    const auto it = extents.find(c);
    if (it != extents.end()) {
      TTLG_CHECK(it->second == e, std::string("extent mismatch for index '") +
                                      c + "'");
    } else {
      extents[c] = e;
    }
  }

  telemetry::Stage stage(telemetry::Site::kTtgtPlan);
  TtgtPlan plan;
  plan.spec = spec;
  plan.a_shape = a_shape;
  plan.b_shape = b_shape;
  plan.c_shape = shape_of(spec.c_indices, extents);
  plan.m = extent_product(spec.free_a, extents);
  plan.n = extent_product(spec.free_b, extents);
  plan.k = extent_product(spec.contracted, extents);

  // Candidate index orders for the three fused GEMM groups. Taking each
  // group either in its source-operand order (cheap operand transpose)
  // or in its destination order (cheap on the other side) gives up to
  // eight layout chains; the §V model arbitrates.
  std::set<std::string> k_orders{filter_order(spec.a_indices, spec.contracted),
                                 filter_order(spec.b_indices,
                                              spec.contracted)};
  std::set<std::string> ma_orders{filter_order(spec.a_indices, spec.free_a),
                                  filter_order(spec.c_indices, spec.free_a)};
  std::set<std::string> nb_orders{filter_order(spec.b_indices, spec.free_b),
                                  filter_order(spec.c_indices, spec.free_b)};

  double best = -1;
  Index chains = 0;
  for (const auto& ko : k_orders) {
    for (const auto& mo : ma_orders) {
      for (const auto& no : nb_orders) {
        const Permutation a_perm =
            layout_permutation(spec.a_indices, mo + ko);
        const Permutation b_perm =
            layout_permutation(spec.b_indices, ko + no);
        const Permutation c_perm =
            layout_permutation(mo + no, spec.c_indices);

        double total = 0;
        std::vector<TtgtStep> steps;
        auto add = [&](const std::string& what, const Shape& shape,
                       const Permutation& perm) {
          TtgtStep st;
          st.what = what;
          st.perm = perm.to_string();
          st.skipped = is_effectively_identity(shape, perm);
          if (!st.skipped) {
            st.predicted_s = predict_transpose_time(props, shape, perm, opts);
            total += st.predicted_s;
          }
          steps.push_back(std::move(st));
        };
        add("transpose A", a_shape, a_perm);
        add("transpose B", b_shape, b_perm);
        // GEMM cost is layout-independent here; estimate it once for
        // reporting (FMA-throughput + streaming-bandwidth bound).
        {
          TtgtStep st;
          st.what = "GEMM";
          const double flops = static_cast<double>(plan.m) *
                               static_cast<double>(plan.n) *
                               static_cast<double>(plan.k);
          const double bytes = static_cast<double>(plan.m * plan.k +
                                                   plan.k * plan.n +
                                                   plan.m * plan.n) *
                               opts.elem_size;
          st.predicted_s =
              props.launch_overhead_s +
              std::max(flops / (props.num_sms * props.clock_ghz * 1e9 *
                                props.dp_fma_per_cycle_per_sm),
                       bytes / (props.effective_bandwidth_gbps * 1e9));
          total += st.predicted_s;
          steps.push_back(std::move(st));
        }
        add("transpose C", shape_of(mo + no, extents), c_perm);

        ++chains;
        telemetry::event(telemetry::Site::kTtgtChain,
                         {{"a_perm", a_perm}, {"b_perm", b_perm},
                          {"c_perm", c_perm},
                          {"predicted_total_us", total * 1e6}});
        if (best < 0 || total < best) {
          best = total;
          plan.a_perm = a_perm;
          plan.b_perm = b_perm;
          plan.c_perm = c_perm;
          plan.steps = std::move(steps);
          plan.predicted_total_s = total;
        }
      }
    }
  }
  stage.emit({{"spec", spec}, {"m", plan.m}, {"n", plan.n}, {"k", plan.k},
              {"chains_evaluated", chains},
              {"predicted_total_us", plan.predicted_total_s * 1e6}});
  return plan;
}

TtgtResult execute_ttgt(sim::Device& dev, const TtgtPlan& plan,
                        const Tensor<double>& a, const Tensor<double>& b) {
  TTLG_CHECK(a.shape() == plan.a_shape && b.shape() == plan.b_shape,
             "operand shapes do not match the plan");
  telemetry::Stage traced(telemetry::Site::kTtgtExecute);
  TtgtResult res;
  res.c = Tensor<double>(plan.c_shape);

  auto stage = [&](const Tensor<double>& t, const Permutation& perm)
      -> sim::DeviceBuffer<double> {
    auto src = dev.alloc_copy<double>(std::span<const double>(t.vec()));
    if (is_effectively_identity(t.shape(), perm)) return src;
    auto dst = dev.alloc<double>(t.volume());
    Plan p = make_plan(dev, t.shape(), perm);
    res.transpose_s += p.execute<double>(src, dst).time_s;
    dev.free(src);
    return dst;
  };
  auto a_ready = stage(a, plan.a_perm);
  auto b_ready = stage(b, plan.b_perm);

  auto c_gemm = dev.alloc<double>(plan.m * plan.n);
  const auto gemm_run = launch_gemm<double>(
      dev, GemmConfig::make(plan.m, plan.n, plan.k), a_ready, b_ready,
      c_gemm);
  res.gemm_s = gemm_run.time_s;
  dev.free(a_ready);
  dev.free(b_ready);

  // The GEMM result is laid out [free_a_order, free_b_order]; its shape
  // is the pre-image of the C shape under the final permutation.
  const Shape gemm_shape = plan.c_perm.inverse().apply(plan.c_shape);
  if (is_effectively_identity(gemm_shape, plan.c_perm)) {
    std::copy(c_gemm.span().begin(), c_gemm.span().end(),
              res.c.vec().begin());
    dev.free(c_gemm);
  } else {
    auto c_final = dev.alloc<double>(plan.m * plan.n);
    Plan p = make_plan(dev, gemm_shape, plan.c_perm);
    res.transpose_s += p.execute<double>(c_gemm, c_final).time_s;
    std::copy(c_final.span().begin(), c_final.span().end(),
              res.c.vec().begin());
    dev.free(c_gemm);
    dev.free(c_final);
  }
  res.total_s = res.transpose_s + res.gemm_s;
  traced.emit({{"transpose_us", res.transpose_s * 1e6},
               {"gemm_us", res.gemm_s * 1e6}, {"total_us", res.total_s * 1e6},
               {"predicted_total_us", plan.predicted_total_s * 1e6},
               {"predicted_s", plan.predicted_total_s},
               {"measured_s", res.total_s}});
  return res;
}

Tensor<double> contract_reference(const ContractionSpec& spec,
                                  const Tensor<double>& a,
                                  const Tensor<double>& b) {
  std::map<char, Index> extents;
  for (std::size_t d = 0; d < spec.a_indices.size(); ++d)
    extents[spec.a_indices[d]] = a.shape().extent(static_cast<Index>(d));
  for (std::size_t d = 0; d < spec.b_indices.size(); ++d)
    extents[spec.b_indices[d]] = b.shape().extent(static_cast<Index>(d));

  Tensor<double> c(shape_of(spec.c_indices, extents));
  const std::string loop_letters = spec.c_indices + spec.contracted;
  std::map<char, Index> idx;
  for (char l : loop_letters) idx[l] = 0;

  auto offset_of = [&](const std::string& letters, const Shape& shape) {
    Index off = 0;
    for (std::size_t d = 0; d < letters.size(); ++d)
      off += idx.at(letters[d]) * shape.stride(static_cast<Index>(d));
    return off;
  };

  const Index total = c.shape().volume() *
                      extent_product(spec.contracted, extents);
  Index done = 0;
  while (done < total) {
    c.at(offset_of(spec.c_indices, c.shape())) +=
        a.at(offset_of(spec.a_indices, a.shape())) *
        b.at(offset_of(spec.b_indices, b.shape()));
    // Odometer over all loop letters (contracted letters fastest).
    ++done;
    for (std::size_t d = 0; d < loop_letters.size(); ++d) {
      const char l = loop_letters[loop_letters.size() - 1 - d];
      if (++idx[l] < extents.at(l)) break;
      idx[l] = 0;
    }
  }
  return c;
}

}  // namespace ttlg::ttgt
