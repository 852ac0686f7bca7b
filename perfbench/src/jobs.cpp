// The closed-loop convergence workloads `rank` (PageRank, dense sum regime)
// and `reach` (SSSP over a long appended chain, sparse min regime): one job
// in flight, each job `PowerLog::Run(source text)` to a verified fixpoint.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "datalog/catalog.h"
#include "eval/mra.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "powerlog/powerlog.h"
#include "workloads.h"

namespace perfbench {

using powerlog::Graph;
using powerlog::RunOptions;
using powerlog::VertexId;

namespace {

// Pool sizing. `rank` draws skewed R-MAT graphs; `reach` draws flat R-MAT
// graphs with a unit-weight chain appended behind vertex 0, so every source
// that reaches vertex 0 needs at least chain_length supersteps. Scales are
// fixed per pool slot; the seed only changes which graph each slot holds.
struct PoolShape {
  std::vector<uint32_t> scales;  ///< one graph per entry
  double edge_factor;
  double skew;            ///< R-MAT `a`; b, c, d share the rest evenly
  bool weighted;
  VertexId chain_length;  ///< 0 = none
  int sources_per_graph;  ///< single-source programs only
};

const PoolShape kRankPool = {{11, 12, 12, 13}, 14.0, 0.57, false, 0, 0};
const PoolShape kReachPool = {{13, 13, 13}, 10.0, 0.45, true, 1000, 4};

constexpr int kSetupRepeats = 5;
constexpr int kMinJobs = 100;          // p90 with ten samples beyond it
constexpr int kMinTracedSamples = 20;  // p50 with ten samples beyond it
constexpr double kHardCapSeconds = 120.0;
constexpr double kPageRankDamping = 0.85;

struct Item {
  int graph = 0;
  VertexId source = 0;
  std::vector<double> reference;
  int64_t reference_edges = 0;
};

std::vector<Graph> BuildPool(const PoolShape& shape, uint64_t seed) {
  Rng rng(seed);
  std::vector<Graph> pool;
  for (uint32_t scale : shape.scales) {
    powerlog::RmatParams params;
    params.scale = scale;
    params.edge_factor = shape.edge_factor;
    params.a = shape.skew;
    params.b = params.c = params.d = (1.0 - shape.skew) / 3.0;
    params.weighted = shape.weighted;
    params.seed = rng.Fork();
    auto graph = powerlog::GenerateRmat(params);
    if (!graph.ok()) {
      std::fprintf(stderr, "GenerateRmat: %s\n",
                   graph.status().ToString().c_str());
      std::exit(1);
    }
    if (shape.chain_length == 0) {
      pool.push_back(std::move(graph).ValueOrDie());
      continue;
    }
    const Graph& base = *graph;
    const VertexId n = base.num_vertices();
    powerlog::GraphBuilder builder;
    builder.EnsureVertices(n + shape.chain_length);
    for (VertexId v = 0; v < n; ++v) {
      for (const powerlog::Edge& e : base.OutEdges(v)) {
        builder.AddEdge(v, e.dst, e.weight);
      }
    }
    builder.AddEdge(0, n, 1.0);
    for (VertexId i = 0; i + 1 < shape.chain_length; ++i) {
      builder.AddEdge(n + i, n + i + 1, 1.0);
    }
    auto extended = std::move(builder).Build();
    if (!extended.ok()) {
      std::fprintf(stderr, "GraphBuilder: %s\n",
                   extended.status().ToString().c_str());
      std::exit(1);
    }
    pool.push_back(std::move(extended).ValueOrDie());
  }
  return pool;
}

double CsrMb(const std::vector<Graph>& pool) {
  double bytes = 0.0;
  for (const Graph& g : pool) {
    bytes += static_cast<double>(g.offsets().size()) * sizeof(uint64_t) +
             static_cast<double>(g.num_edges()) * sizeof(powerlog::Edge);
  }
  return bytes / (1024.0 * 1024.0);
}

struct JobOutcome {
  bool ok = false;
  std::string error;
  double seconds = 0.0;
};

// Checks one finished run against its reference.
std::string Verify(const powerlog::Result<powerlog::RunOutcome>& run,
                   const Item& item, bool exact, double tolerance) {
  if (!run.ok()) return run.status().ToString();
  if (!run->stats.converged) return "not converged";
  return CompareValues(run->values, item.reference, exact, tolerance);
}

}  // namespace

int RunJobs(const Args& args, bool reach) {
  const PoolShape& shape = reach ? kReachPool : kRankPool;
  const std::string program = reach ? "sssp" : "pagerank";
  const double calibration_ms = CalibrationMs();
  auto entry = powerlog::datalog::GetCatalogEntry(program);
  if (!entry.ok()) {
    std::fprintf(stderr, "%s\n", entry.status().ToString().c_str());
    return 1;
  }
  const std::string& source_text = entry->source;
  auto kernel = powerlog::PowerLog::Compile(source_text);
  if (!kernel.ok()) {
    std::fprintf(stderr, "compile %s: %s\n", program.c_str(),
                 kernel.status().ToString().c_str());
    return 1;
  }
  const bool exact = reach;
  const double tolerance =
      exact ? 0.0
            : SumTolerance(kernel->termination.epsilon, kPageRankDamping);

  Report report;
  Rng rng(args.seed);
  const uint64_t pool_seed = rng.Fork();

  // Set-up: build the graph pool; repeated so set-up time is a median.
  std::vector<Graph> pool;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    pool.clear();
    const double t0 = Now();
    pool = BuildPool(shape, pool_seed);
    const double t1 = Now();
    report.Sample("setup_s", t1 - t0);
    report.Sample("graph.build_s", t1 - t0);
  }
  report.Scalar("graph.csr_mb", CsrMb(pool));

  // References (not set-up): the single-thread MRA oracle per item.
  std::vector<Item> items;
  for (int g = 0; g < static_cast<int>(pool.size()); ++g) {
    const int sources = reach ? shape.sources_per_graph : 1;
    int drawn = 0;
    for (int attempt = 0; drawn < sources && attempt < 64 * sources;
         ++attempt) {
      Item item;
      item.graph = g;
      powerlog::Kernel k = *kernel;
      if (reach) {
        const VertexId n = pool[g].num_vertices() - shape.chain_length;
        item.source = static_cast<VertexId>(rng.Below(n));
        if (pool[g].OutDegree(item.source) == 0) continue;
        k.init.source = item.source;
      }
      const double t0 = Now();
      auto ref = powerlog::eval::MraEvaluate(k, pool[g]);
      const double t1 = Now();
      if (!ref.ok() || !ref->converged) {
        std::fprintf(stderr, "reference failed on graph %d\n", g);
        return 1;
      }
      // Every drawn source must reach the end of the chain, which the
      // oracle shows as at least chain_length iterations.
      if (reach && (ref->iterations < shape.chain_length ||
                    std::isinf(ref->values.back()))) {
        continue;
      }
      report.Sample("eval.mra_s", t1 - t0);
      item.reference = std::move(ref->values);
      item.reference_edges = ref->edge_applications;
      items.push_back(std::move(item));
      ++drawn;
    }
    if (drawn < sources) {
      std::fprintf(stderr, "graph %d: no source reaches the chain\n", g);
      return 1;
    }
  }
  // Seeded job order over the items.
  std::vector<size_t> order(items.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }

  auto options_for = [&](const Item& item, uint32_t workers, bool metrics) {
    RunOptions options;
    options.engine = UnmodelledEngine();
    options.engine.num_workers = workers;
    options.engine.collect_metrics = metrics;
    if (reach) options.source = item.source;
    return options;
  };
  std::string simd_dispatch = "unknown";

  // One untraced job: PowerLog::Run(source text) end to end.
  auto plain_job = [&](const Item& item, uint32_t workers) {
    const RunOptions options = options_for(item, workers, false);
    const double t0 = Now();
    auto run = powerlog::PowerLog::Run(source_text, pool[item.graph], options);
    const double t1 = Now();
    JobOutcome out;
    out.seconds = t1 - t0;
    out.error = Verify(run, item, exact, tolerance);
    out.ok = out.error.empty();
    if (run.ok()) simd_dispatch = run->stats.simd_dispatch;
    return out;
  };

  if (!args.trace) {
    const double start = Now();
    int64_t jobs = 0;
    while ((Now() - start < args.seconds || jobs < kMinJobs) &&
           Now() - start < kHardCapSeconds) {
      const Item& item = items[order[jobs % order.size()]];
      JobOutcome job = plain_job(item, UnmodelledEngine().num_workers);
      report.Attempt(job.ok, program + " job: " + job.error);
      report.Sample("op_ms", job.ok ? job.seconds * 1e3 : INFINITY);
      ++jobs;
    }
    RecordHost(&report, simd_dispatch, calibration_ms);
    report.Scalar("peak_rss_mb", PeakRssMb());
    return WriteFile(args.out, report.ToJson()) ? 0 : 1;
  }

  // Traced run. Phase A alternates a plain job (the untraced reference)
  // with a traced one that times Check, Compile and Run(kernel) as separate
  // calls with the engine's metrics on; phase B repeats plain jobs at one
  // worker.
  SpanLog spans;
  spans.NameTrack(1, "jobs: Check, Compile, Run(kernel)");
  spans.NameTrack(2, "engine");
  spans.NameTrack(3, "jobs at 1 worker");
  double engine_edges = 0.0, engine_wall = 0.0, updates = 0.0,
         messages = 0.0, vector_edges = 0.0, vm_edges = 0.0, skipped = 0.0,
         harvests = 0.0, barrier_us = 0.0, drain_us = 0.0, stall_us = 0.0,
         worker_wall_us = 0.0;
  std::vector<double> work_ratios;
  const uint32_t workers = UnmodelledEngine().num_workers;
  const double start = Now();
  int64_t pairs = 0;
  while ((Now() - start < args.seconds * 0.6 || pairs < kMinTracedSamples) &&
         Now() - start < kHardCapSeconds) {
    const Item& item = items[order[pairs % order.size()]];
    const int64_t id = pairs++;

    JobOutcome plain = plain_job(item, workers);
    report.Attempt(plain.ok, program + " job: " + plain.error);
    report.Sample("job_s", plain.ok ? plain.seconds : INFINITY);

    const double t0 = Now();
    auto check = powerlog::PowerLog::Check(source_text);
    const double t1 = Now();
    auto compiled = powerlog::PowerLog::Compile(source_text);
    const double t2 = Now();
    if (!check.ok() || !check->satisfied || !compiled.ok()) {
      report.Attempt(false, program + ": check/compile failed");
      continue;
    }
    auto run = powerlog::PowerLog::Run(*compiled, pool[item.graph],
                                       options_for(item, workers, true));
    const double t3 = Now();
    spans.Add("checker.Check", t0, t1, 1, id);
    spans.Add("datalog.Compile", t1, t2, 1, id);
    spans.Add("PowerLog::Run(kernel)", t2, t3, 1, id);
    const std::string error = Verify(run, item, exact, tolerance);
    report.Attempt(error.empty(), program + " traced job: " + error);
    if (!error.empty()) continue;
    const powerlog::runtime::EngineStats& st = run->stats;
    spans.Add("engine", t3 - st.wall_seconds, t3, 2, id);
    report.Sample("checker.check_ms", (t1 - t0) * 1e3);
    report.Sample("datalog.compile_ms", (t2 - t1) * 1e3);
    report.Sample("job_traced_s", t3 - t0);
    report.Sample("runtime.engine_s", st.wall_seconds);
    report.Sample("runtime.outside_engine_ms",
                  ((t3 - t2) - st.wall_seconds) * 1e3);
    report.Sample("runtime.supersteps", static_cast<double>(st.supersteps));
    report.Sample("runtime.steal_attempts",
                  static_cast<double>(st.steal_attempts));
    work_ratios.push_back(static_cast<double>(st.edge_applications) /
                          static_cast<double>(item.reference_edges));
    engine_edges += static_cast<double>(st.edge_applications);
    engine_wall += st.wall_seconds;
    updates += static_cast<double>(st.updates_sent);
    messages += static_cast<double>(st.messages);
    vector_edges += static_cast<double>(st.vector_edges);
    vm_edges += static_cast<double>(st.vm_edges);
    skipped += static_cast<double>(st.frontier_skipped);
    harvests += static_cast<double>(st.harvests);
    for (const auto& w : st.workers) {
      barrier_us += static_cast<double>(w.barrier_wait_us);
      drain_us += static_cast<double>(w.inbox_drain_us);
      stall_us += static_cast<double>(w.stall_us);
      worker_wall_us += st.wall_seconds * 1e6;
    }
  }
  int64_t single = 0;
  while ((Now() - start < args.seconds || single < kMinTracedSamples) &&
         Now() - start < kHardCapSeconds) {
    const Item& item = items[order[single % order.size()]];
    const double t0 = Now();
    JobOutcome job = plain_job(item, 1);
    spans.Add("job 1 worker", t0, Now(), 3, single++);
    report.Attempt(job.ok, program + " 1-worker job: " + job.error);
    report.Sample("runtime.job_1w_s", job.ok ? job.seconds : INFINITY);
  }

  auto share = [](double part, double whole) {
    return whole > 0.0 ? part / whole : 0.0;
  };
  report.Scalar("runtime.work_ratio", Median(work_ratios));
  report.Scalar("runtime.updates_per_edge", share(updates, engine_edges));
  report.Scalar("runtime.updates_per_message", share(updates, messages));
  report.Scalar("runtime.frontier_skip_ratio",
                share(skipped, skipped + harvests));
  report.Scalar("runtime.barrier_wait_share", share(barrier_us, worker_wall_us));
  report.Scalar("runtime.inbox_drain_share", share(drain_us, worker_wall_us));
  report.Scalar("runtime.stall_share", share(stall_us, worker_wall_us));
  report.Scalar("core.edges_per_s", share(engine_edges, engine_wall));
  report.Scalar("core.vector_share", share(vector_edges, engine_edges));
  report.Scalar("core.vm_share", share(vm_edges, engine_edges));
  const double untraced = Median(report.Series("job_s"));
  report.Scalar("trace.overhead_ratio",
                share(Median(report.Series("job_traced_s")), untraced));
  report.Scalar("runtime.scaling_4w",
                share(Median(report.Series("runtime.job_1w_s")), untraced));

  RecordHost(&report, simd_dispatch, calibration_ms);
  report.Scalar("peak_rss_mb", PeakRssMb());
  if (!args.trace_out.empty() &&
      !WriteFile(args.trace_out, spans.ToChromeJson())) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    return 1;
  }
  return WriteFile(args.out, report.ToJson()) ? 0 : 1;
}

}  // namespace perfbench
