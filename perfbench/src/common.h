// Shared plumbing for the PowerLog benchmark program: arguments, the one
// place the simulated cost model is switched off, host facts, clocks, the
// raw-result report that run.py turns into metrics, and the in-memory span
// log written out as Chrome trace JSON.
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "runtime/engine.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;        ///< raw result JSON (read by run.py)
  std::string trace_out;  ///< Chrome trace JSON (traced runs only)
};

/// Engine options with the simulated cluster cost model switched off:
/// instant zero-cost delivery, no receiver CPU burn, no barrier spin, no
/// injected stalls, no compute inflation. Every other field keeps the
/// library default, so a later change of a default shows in the numbers.
powerlog::runtime::EngineOptions UnmodelledEngine();

/// Seconds on the monotonic clock.
double Now();

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

/// Facts that make numbers from different hosts incomparable.
struct HostFacts {
  int nproc = 0;
  std::string cpu_model;
  int64_t l2_kb = 0;
  int64_t l3_kb = 0;
};
HostFacts ProbeHost();

/// Deterministic generator for every seeded input of a workload.
class Rng {
 public:
  explicit Rng(uint64_t seed) : gen_(seed) {}
  /// Uniform integer in [0, n).
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : gen_() % n; }
  /// Uniform real in [0, 1).
  double Unit() { return static_cast<double>(gen_() >> 11) * 0x1.0p-53; }
  /// A fresh seed for a derived generator.
  uint64_t Fork() { return gen_() ^ 0x9E3779B97F4A7C15ULL; }

 private:
  std::mt19937_64 gen_;
};

/// Median of `v` (0 for an empty vector).
double Median(std::vector<double> v);

/// Chrome trace-event spans kept in memory and written once at the end.
class SpanLog {
 public:
  /// Records one complete span [start, end] (seconds on Now()'s clock) on
  /// track `tid`, optionally tagged with a request or job id.
  void Add(const std::string& name, double start, double end, int tid,
           int64_t id = -1);
  /// Names track `tid` in the trace viewer.
  void NameTrack(int tid, const std::string& name);
  std::string ToChromeJson() const;

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    int tid;
    int64_t id;
  };
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<int, std::string> tracks_;
};

/// Raw outcome of one benchmark run. run.py derives every printed metric
/// from this: sample lists become percentiles, scalars pass through.
class Report {
 public:
  /// Counts one operation; a failed one is recorded with its reason.
  void Attempt(bool ok, const std::string& what);
  /// Appends a sample to a named series. Failed operations add +inf so that
  /// they count as missing every latency limit.
  void Sample(const std::string& series, double value);
  /// A scalar per-layer value.
  void Scalar(const std::string& name, double value);
  void Fact(const std::string& name, const std::string& value);

  /// The samples of one series so far (empty if none).
  std::vector<double> Series(const std::string& name) const {
    auto it = series_.find(name);
    return it == series_.end() ? std::vector<double>{} : it->second;
  }

  /// Open-loop request record: times in ms from the start of the window.
  struct Request {
    int route;
    double due_ms;
    double sent_ms;
    double connected_ms;
    double done_ms;
    bool ok;
  };
  void SetRequests(std::vector<std::string> routes,
                   std::vector<Request> requests);

  std::string ToJson() const;

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, std::vector<double>> series_;
  std::map<std::string, double> scalars_;
  std::map<std::string, std::string> facts_;
  std::vector<std::string> routes_;
  std::vector<Request> requests_;
};

/// Wall time, in ms, for every CPU of the host to finish the same fixed
/// arithmetic at once. It rises when the host is oversubscribed (CPU steal
/// from other guests) or throttled, which no metric corrects for.
double CalibrationMs();

/// Stores the host facts in `report`: the engine's SIMD dispatch, and the
/// calibration time measured before the run (`calibration_start_ms`) and
/// now.
void RecordHost(Report* report, const std::string& simd_dispatch,
                double calibration_start_ms);

/// Writes `body` to `path`; false on failure.
bool WriteFile(const std::string& path, const std::string& body);

/// Compares a run's values with a reference. Min/max programs must match
/// bit for bit (infinities included); sum programs within `tolerance` in
/// L-infinity. Returns an empty string on success, else a description.
std::string CompareValues(const std::vector<double>& got,
                          const std::vector<double>& want, bool exact,
                          double tolerance);

/// L-infinity tolerance for a sum program checked against an independent
/// converged run: each run stops once the global aggregate moves by less
/// than ε per step, which leaves it within ε·d/(1−d) of the fixpoint in L1
/// (d = the damping factor, 0.85 for PageRank), so two runs may differ by
/// twice that.
double SumTolerance(double epsilon, double damping);

}  // namespace perfbench
