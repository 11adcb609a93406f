#include "telemetry/report.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "telemetry/json_writer.h"

namespace ucudnn::telemetry {

namespace {

double relative_error_pct(double estimated, double measured) {
  if (estimated <= 0.0) return 0.0;
  return std::fabs(measured - estimated) / estimated * 100.0;
}

std::string fixed(double value, int decimals = 3) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

}  // namespace

double SegmentReport::error_pct() const noexcept {
  if (runs == 0) return 0.0;
  return relative_error_pct(estimated_ms, measured_ms_avg());
}

double KernelReport::estimated_ms() const noexcept {
  double total = 0.0;
  for (const SegmentReport& s : segments) total += s.estimated_ms;
  return total;
}

double KernelReport::measured_ms() const noexcept {
  double total = 0.0;
  for (const SegmentReport& s : segments) total += s.measured_ms_avg();
  return total;
}

double KernelReport::error_pct() const noexcept {
  return relative_error_pct(estimated_ms(), measured_ms());
}

double WorkspaceAuditReport::utilization_pct() const noexcept {
  if (declared_bytes == 0) return 0.0;
  return static_cast<double>(touched_bytes) /
         static_cast<double>(declared_bytes) * 100.0;
}

void SegmentErrorMean::add(const std::vector<SegmentReport>& segments) noexcept {
  for (const SegmentReport& s : segments) {
    if (s.runs == 0) continue;
    total_pct_ += s.error_pct();
    ++measured_;
  }
}

double SegmentErrorMean::pct() const noexcept {
  return measured_ == 0 ? 0.0 : total_pct_ / static_cast<double>(measured_);
}

std::uint64_t ExecutionReport::measured_segments() const noexcept {
  SegmentErrorMean mean;
  for (const KernelReport& k : kernels) mean.add(k.segments);
  return mean.measured();
}

double ExecutionReport::estimation_error_pct() const noexcept {
  SegmentErrorMean mean;
  for (const KernelReport& k : kernels) mean.add(k.segments);
  return mean.pct();
}

std::string ExecutionReport::to_text() const {
  std::string out;
  out += "=== ucudnn execution report: device=" + device +
         " policy=" + policy + " batchPolicy=" + batch_size_policy + " ===\n";
  out += "plan cache: " + std::to_string(plan_cache_hits) + " hit(s), " +
         std::to_string(plan_cache_misses) + " miss(es)\n";
  out += "degradation: " + (degradation.empty() ? "none" : degradation) + "\n";

  for (const KernelReport& k : kernels) {
    out += "\nkernel " + k.label + " " + k.problem + "\n";
    out += "  plan: " + k.plan + "\n";
    out += "  provenance: " + k.provenance + "  policy=" + k.policy +
           "  workspace=" + k.workspace_kind +
           "  limit=" + std::to_string(k.workspace_limit) + "B" +
           "  declared=" + std::to_string(k.workspace_declared) + "B" +
           "  executions=" + std::to_string(k.executions);
    if (k.replans > 0) out += "  replans=" + std::to_string(k.replans);
    out += "\n";
    out += "  seg      batch  algo              est[ms]    meas[ms]   err[%]"
           "    runs\n";
    char line[160];
    for (std::size_t i = 0; i < k.segments.size(); ++i) {
      const SegmentReport& s = k.segments[i];
      std::snprintf(line, sizeof(line),
                    "  %3zu %10lld  %-14s %10.4f  %10.4f  %7.2f  %6llu%s\n",
                    i, static_cast<long long>(s.batch), s.algo_name.c_str(),
                    s.estimated_ms, s.measured_ms_avg(), s.error_pct(),
                    static_cast<unsigned long long>(s.runs),
                    s.accumulate ? "  (acc)" : "");
      out += line;
    }
    out += "  total: est=" + fixed(k.estimated_ms()) +
           "ms meas=" + fixed(k.measured_ms()) +
           "ms err=" + fixed(k.error_pct(), 2) + "%\n";
  }

  if (!audit.empty()) {
    out += "\nworkspace audit (declared vs touched high-water):\n";
    for (const WorkspaceAuditReport& a : audit) {
      out += "  " + a.kernel + ": declared=" +
             std::to_string(a.declared_bytes) + "B touched=" +
             std::to_string(a.touched_bytes) + "B utilization=" +
             fixed(a.utilization_pct(), 1) + "% runs=" +
             std::to_string(a.runs) + "\n";
    }
  }

  out += "\naggregate estimation error: " + fixed(estimation_error_pct(), 2) +
         "% over " + std::to_string(measured_segments()) +
         " measured segment(s)\n";
  return out;
}

std::string ExecutionReport::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("ucudnn-execution-report-v1");
  w.key("device").value(device);
  w.key("policy").value(policy);
  w.key("batch_size_policy").value(batch_size_policy);
  w.key("plan_cache").begin_object();
  w.key("hits").value(plan_cache_hits);
  w.key("misses").value(plan_cache_misses);
  w.end_object();
  w.key("degradation").value(degradation);
  w.key("estimation_error_pct").value(estimation_error_pct());
  w.key("measured_segments").value(measured_segments());
  w.key("kernels").begin_array();
  for (const KernelReport& k : kernels) {
    w.begin_object();
    w.key("label").value(k.label);
    w.key("kernel_type").value(k.kernel_type);
    w.key("problem").value(k.problem);
    w.key("plan").value(k.plan);
    w.key("policy").value(k.policy);
    w.key("provenance").value(k.provenance);
    w.key("workspace").begin_object();
    w.key("kind").value(k.workspace_kind);
    w.key("limit_bytes").value(k.workspace_limit);
    w.key("declared_bytes").value(k.workspace_declared);
    w.end_object();
    w.key("executions").value(k.executions);
    w.key("replans").value(k.replans);
    w.key("estimated_ms").value(k.estimated_ms());
    w.key("measured_ms").value(k.measured_ms());
    w.key("error_pct").value(k.error_pct());
    w.key("segments").begin_array();
    for (const SegmentReport& s : k.segments) {
      w.begin_object();
      w.key("batch").value(s.batch);
      w.key("algo").value(s.algo);
      w.key("algo_name").value(s.algo_name);
      w.key("accumulate").value(s.accumulate);
      w.key("workspace_bytes").value(s.workspace_bytes);
      w.key("estimated_ms").value(s.estimated_ms);
      w.key("measured_ms").value(s.measured_ms_avg());
      w.key("error_pct").value(s.error_pct());
      w.key("runs").value(s.runs);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("audit").begin_array();
  for (const WorkspaceAuditReport& a : audit) {
    w.begin_object();
    w.key("kernel").value(a.kernel);
    w.key("declared_bytes").value(a.declared_bytes);
    w.key("touched_bytes").value(a.touched_bytes);
    w.key("utilization_pct").value(a.utilization_pct());
    w.key("runs").value(a.runs);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

const std::string& report_file_path() noexcept {
  // std::getenv, not common/env.h: telemetry is a leaf.
  static const std::string path = [] {
    const char* raw = std::getenv("UCUDNN_REPORT_FILE");
    return std::string(raw == nullptr ? "" : raw);
  }();
  return path;
}

void write_report_file(const ExecutionReport& report, const std::string& path) {
  if (path.empty()) return;
  const bool json = path.size() >= 5 &&
                    path.compare(path.size() - 5, 5, ".json") == 0;
  const std::string body = json ? report.to_json() + "\n" : report.to_text();
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
  }
}

}  // namespace ucudnn::telemetry
