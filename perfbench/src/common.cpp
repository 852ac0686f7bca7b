#include "common.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

namespace {

void AppendNumber(std::string* out, double v) {
  if (!std::isfinite(v)) {
    out->append("null");
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

void AppendString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace

powerlog::runtime::EngineOptions UnmodelledEngine() {
  powerlog::runtime::EngineOptions options;
  options.network.instant = true;
  options.network.latency_us = 0.0;
  options.network.per_update_us = 0.0;
  options.network.cpu_us_per_message = 0.0;
  options.network.cpu_us_per_update = 0.0;
  options.barrier_overhead_us = 0;
  options.stall_every_us = 0;
  options.compute_inflation_ns_per_edge = 0.0;
  return options;
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

HostFacts ProbeHost() {
  HostFacts facts;
  cpu_set_t set;
  CPU_ZERO(&set);
  facts.nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                    ? CPU_COUNT(&set)
                    : static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
#ifdef _SC_LEVEL2_CACHE_SIZE
  facts.l2_kb = std::max<long>(0, sysconf(_SC_LEVEL2_CACHE_SIZE)) / 1024;
  facts.l3_kb = std::max<long>(0, sysconf(_SC_LEVEL3_CACHE_SIZE)) / 1024;
#endif
#if defined(__x86_64__) || defined(__i386__)
  unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    char brand[49] = {};
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      unsigned int regs[4];
      __get_cpuid(0x80000002u + leaf, &regs[0], &regs[1], &regs[2], &regs[3]);
      std::memcpy(brand + leaf * 16, regs, sizeof(regs));
    }
    facts.cpu_model = brand;
    const size_t first = facts.cpu_model.find_first_not_of(' ');
    facts.cpu_model =
        first == std::string::npos ? "" : facts.cpu_model.substr(first);
  }
#endif
  if (facts.cpu_model.empty()) facts.cpu_model = "unknown";
  return facts;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void SpanLog::Add(const std::string& name, double start, double end, int tid,
                  int64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start, end, tid, id});
}

void SpanLog::NameTrack(int tid, const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  tracks_[tid] = name;
}

std::string SpanLog::ToChromeJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  double origin = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (i == 0 || spans_[i].start < origin) origin = spans_[i].start;
  }
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& [tid, name] : tracks_) {
    if (!first) out += ",";
    first = false;
    out += "{\"ph\":\"M\",\"pid\":1,\"name\":\"thread_name\",\"tid\":" +
           std::to_string(tid) + ",\"args\":{\"name\":";
    AppendString(&out, name);
    out += "}}";
  }
  for (const Span& s : spans_) {
    if (!first) out += ",";
    first = false;
    out += "{\"ph\":\"X\",\"pid\":1,\"cat\":\"perfbench\",\"name\":";
    AppendString(&out, s.name);
    out += ",\"tid\":" + std::to_string(s.tid) + ",\"ts\":";
    AppendNumber(&out, (s.start - origin) * 1e6);
    out += ",\"dur\":";
    AppendNumber(&out, (s.end - s.start) * 1e6);
    if (s.id >= 0) out += ",\"args\":{\"id\":" + std::to_string(s.id) + "}";
    out += "}";
  }
  out += "]}\n";
  return out;
}

void Report::Attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(what);
}

void Report::Sample(const std::string& series, double value) {
  series_[series].push_back(value);
}

void Report::Scalar(const std::string& name, double value) {
  scalars_[name] = value;
}

void Report::Fact(const std::string& name, const std::string& value) {
  facts_[name] = value;
}

void Report::SetRequests(std::vector<std::string> routes,
                         std::vector<Request> requests) {
  routes_ = std::move(routes);
  requests_ = std::move(requests);
}

std::string Report::ToJson() const {
  std::string out = "{\"attempted\":" + std::to_string(attempted_) +
                    ",\"failed\":" + std::to_string(failed_) +
                    ",\"failures\":[";
  for (size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) out += ",";
    AppendString(&out, failures_[i]);
  }
  out += "],\"facts\":{";
  bool first = true;
  for (const auto& [name, value] : facts_) {
    if (!first) out += ",";
    first = false;
    AppendString(&out, name);
    out += ":";
    AppendString(&out, value);
  }
  out += "},\"scalars\":{";
  first = true;
  for (const auto& [name, value] : scalars_) {
    if (!first) out += ",";
    first = false;
    AppendString(&out, name);
    out += ":";
    AppendNumber(&out, value);
  }
  out += "},\"series\":{";
  first = true;
  for (const auto& [name, values] : series_) {
    if (!first) out += ",";
    first = false;
    AppendString(&out, name);
    out += ":[";
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ",";
      AppendNumber(&out, values[i]);
    }
    out += "]";
  }
  out += "},\"routes\":[";
  for (size_t i = 0; i < routes_.size(); ++i) {
    if (i > 0) out += ",";
    AppendString(&out, routes_[i]);
  }
  // [route, due, sent, connected, done, ok]; times in ms.
  out += "],\"requests\":[";
  for (size_t i = 0; i < requests_.size(); ++i) {
    const Request& r = requests_[i];
    if (i > 0) out += ",";
    out += "[" + std::to_string(r.route) + ",";
    AppendNumber(&out, r.due_ms);
    out += ",";
    AppendNumber(&out, r.sent_ms);
    out += ",";
    AppendNumber(&out, r.connected_ms);
    out += ",";
    AppendNumber(&out, r.done_ms);
    out += r.ok ? ",1]" : ",0]";
  }
  out += "]}\n";
  return out;
}

double CalibrationMs() {
  const int threads = std::max(1, ProbeHost().nproc);
  std::vector<std::thread> pool;
  std::atomic<uint64_t> sink{0};
  const double t0 = Now();
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, t] {
      uint64_t x = static_cast<uint64_t>(t) + 1;
      for (int i = 0; i < 20000000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      }
      sink.fetch_add(x, std::memory_order_relaxed);
    });
  }
  for (std::thread& t : pool) t.join();
  return (Now() - t0) * 1e3;
}

void RecordHost(Report* report, const std::string& simd_dispatch,
                double calibration_start_ms) {
  const HostFacts host = ProbeHost();
  report->Fact("host.nproc", std::to_string(host.nproc));
  report->Fact("host.cpu_model", host.cpu_model);
  report->Fact("host.l2_kb", std::to_string(host.l2_kb));
  report->Fact("host.l3_kb", std::to_string(host.l3_kb));
  report->Fact("host.simd_dispatch", simd_dispatch);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", calibration_start_ms);
  report->Fact("host.calibration_ms.start", buf);
  std::snprintf(buf, sizeof(buf), "%.1f", CalibrationMs());
  report->Fact("host.calibration_ms.end", buf);
}

bool WriteFile(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << body;
  out.flush();
  return static_cast<bool>(out);
}

std::string CompareValues(const std::vector<double>& got,
                          const std::vector<double>& want, bool exact,
                          double tolerance) {
  if (got.size() != want.size()) {
    return "size " + std::to_string(got.size()) + " != " +
           std::to_string(want.size());
  }
  double worst = 0.0;
  size_t worst_at = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    const double a = got[i];
    const double b = want[i];
    if (exact) {
      if (std::memcmp(&a, &b, sizeof(double)) != 0) {
        std::ostringstream msg;
        msg << "row " << i << ": " << a << " != " << b;
        return msg.str();
      }
      continue;
    }
    if (std::isinf(a) || std::isinf(b) || std::isnan(a) || std::isnan(b)) {
      if (!(a == b)) {
        std::ostringstream msg;
        msg << "row " << i << ": " << a << " vs " << b;
        return msg.str();
      }
      continue;
    }
    const double diff = std::fabs(a - b);
    if (diff > worst) {
      worst = diff;
      worst_at = i;
    }
  }
  if (worst > tolerance) {
    std::ostringstream msg;
    msg << "row " << worst_at << " off by " << worst << " > " << tolerance;
    return msg.str();
  }
  return "";
}

double SumTolerance(double epsilon, double damping) {
  return 2.0 * epsilon * damping / (1.0 - damping);
}

}  // namespace perfbench
