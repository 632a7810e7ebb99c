#include "layers.hpp"

namespace perfbench {

ttlg::Plan plan_by_parts(ttlg::sim::Device& dev, const Case& c,
                         SpanRecorder& rec, int parent, PartTimes* parts) {
  ttlg::PlanOptions opts;
  opts.elem_size = c.elem_size;
  const std::int64_t t0 = now_ns();
  ttlg::TransposeProblem problem =
      ttlg::TransposeProblem::make(c.shape, c.perm, c.elem_size);
  const std::int64_t t1 = now_ns();
  const ttlg::PerfModel model(dev.props(), opts.model);
  ttlg::KernelSelection sel = ttlg::select_kernel(problem, model, opts);
  const std::int64_t t2 = now_ns();
  parts->candidates = sel.candidates_considered;
  ttlg::Plan plan =
      ttlg::Plan::from_selection(dev, std::move(problem), std::move(sel));
  const std::int64_t t3 = now_ns();
  plan.finalize_specialization(opts.specialize &&
                               ttlg::specialization_enabled_by_env());
  const std::int64_t t4 = now_ns();
  rec.record("problem.make", t0, t1, parent);
  rec.record("planner.select_kernel", t1, t2, parent);
  rec.record("plan.from_selection", t2, t3, parent);
  rec.record("plan.finalize_specialization", t3, t4, parent);
  parts->select_ns = static_cast<double>(t2 - t1);
  parts->upload_ns = static_cast<double>(t3 - t2);
  parts->compile_ns = static_cast<double>(t4 - t3);
  return plan;
}

}  // namespace perfbench
