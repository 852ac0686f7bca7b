// The `serve` workload: resident pagerank and sssp pairs over one seeded
// R-MAT graph, served over loopback HTTP by MakeServingHandler, under
// open-loop Poisson traffic that mixes reads (/lookup, /topk), full runs
// (/run) and writes (/mutate). One generator thread keeps at most nproc
// connections open; each request is timed from the moment it was due.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "common/metrics.h"
#include "datalog/catalog.h"
#include "graph/generators.h"
#include "graph/mutation.h"
#include "powerlog/powerlog.h"
#include "powerlog/serving.h"
#include "runtime/exposition.h"
#include "runtime/reconverge.h"
#include "workloads.h"

namespace perfbench {

using powerlog::Graph;
using powerlog::VertexId;

namespace {

constexpr const char* kDataset = "bench";
constexpr int kSetupRepeats = 5;
constexpr int kHandlerThreads = 4;  // powerlog_serve's --handler-threads
constexpr int kOpsPerBatch = 16;
constexpr int kDeletesPerBatch = 4;  // a quarter of each batch
constexpr size_t kTopKSize = 100;
constexpr double kPageRankDamping = 0.85;
constexpr double kSpinSeconds = 200e-6;

// The served graph: skewed R-MAT with weights for sssp, at half flickr
// scale so that pagerank /mutate keeps its handle below a quarter busy.
constexpr uint32_t kScale = 13;
constexpr double kEdgeFactor = 14.0;
constexpr double kSkew = 0.55;

enum Route { kLookup, kTopK, kRun, kMutateMin, kMutateSum, kNumRoutes };
const char* const kRouteNames[kNumRoutes] = {"lookup", "topk", "run",
                                             "mutate_min", "mutate_sum"};

// Offered rate per route (requests per second) and the minimum count per
// window: p99 needs 1000 samples, p90 100, p50 20 for ten beyond.
struct RouteLoad {
  double rate;
  int min_count;
};
constexpr RouteLoad kLoad[kNumRoutes] = {
    {30.0, 1100}, {3.0, 110}, {2.75, 110}, {3.0, 110}, {1.1, 22}};

// Extra direct handle calls in the traced run.
constexpr int kDirectReads = 2000;
constexpr int kDirectTopK = 100;
constexpr int kDirectRuns = 20;
constexpr int kDirectApplyMin = 20;
constexpr int kDirectApplySum = 20;
constexpr int kDirectPatches = 40;
constexpr int kColdComparisons = 4;

struct Pair {
  std::string program;
  std::string source_text;
  bool exact;  // min program: results compare bit for bit
  std::shared_ptr<powerlog::serving::Materialization> handle;
};

struct Request {
  Route route;
  int pair;        // 0 = pagerank, 1 = sssp
  double due;      // seconds from window start
  std::string head;
  std::string body;
  VertexId vertex = 0;  // /lookup
};

struct Outcome {
  int slot = -1;  // connection slot, for the trace
  double sent = -1.0;
  double connected = -1.0;
  double done = -1.0;
  std::string response;
  bool io_ok = false;
};

Graph BuildGraph(uint64_t seed) {
  powerlog::RmatParams params;
  params.scale = kScale;
  params.edge_factor = kEdgeFactor;
  params.a = kSkew;
  params.b = params.c = params.d = (1.0 - kSkew) / 3.0;
  params.weighted = true;
  params.seed = seed;
  auto graph = powerlog::GenerateRmat(params);
  if (!graph.ok()) {
    std::fprintf(stderr, "GenerateRmat: %s\n",
                 graph.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(graph).ValueOrDie();
}

bool HasEdge(const Graph& g, VertexId s, VertexId d) {
  for (const powerlog::Edge& e : g.OutEdges(s)) {
    if (e.dst == d) return true;
  }
  return false;
}

// Draws mutation batches for one pair: deletes take distinct edges of the
// base graph, inserts take vertex pairs that are not edges of it, so every
// op applies and the final graph does not depend on the order the batches
// arrive in.
std::vector<powerlog::MutationBatch> DrawBatches(const Graph& g, int count,
                                                 Rng* rng) {
  std::vector<powerlog::MutationBatch> batches(count);
  std::set<std::pair<VertexId, VertexId>> deleted;
  const VertexId n = g.num_vertices();
  for (auto& batch : batches) {
    for (int op = 0; op < kOpsPerBatch; ++op) {
      if (op < kDeletesPerBatch) {
        while (true) {
          const VertexId s = static_cast<VertexId>(rng->Below(n));
          if (g.OutDegree(s) == 0) continue;
          const VertexId d = g.OutBegin(s)[rng->Below(g.OutDegree(s))].dst;
          if (!deleted.insert({s, d}).second) continue;
          batch.DeleteEdge(s, d);
          break;
        }
      } else {
        while (true) {
          const VertexId s = static_cast<VertexId>(rng->Below(n));
          const VertexId d = static_cast<VertexId>(rng->Below(n));
          if (s == d || HasEdge(g, s, d)) continue;
          batch.InsertEdge(s, d, 1.0 + 63.0 * rng->Unit());
          break;
        }
      }
    }
  }
  return batches;
}

std::string MutationBody(const powerlog::MutationBatch& batch) {
  std::string body = "{\"ops\":[";
  for (size_t i = 0; i < batch.ops().size(); ++i) {
    const powerlog::EdgeMutation& op = batch.ops()[i];
    if (i > 0) body += ",";
    char buf[160];
    if (op.kind == powerlog::MutationOp::kDeleteEdge) {
      std::snprintf(buf, sizeof(buf), "{\"op\":\"delete\",\"src\":%u,\"dst\":%u}",
                    op.src, op.dst);
    } else {
      std::snprintf(buf, sizeof(buf),
                    "{\"op\":\"insert\",\"src\":%u,\"dst\":%u,\"weight\":%.17g}",
                    op.src, op.dst, op.weight);
    }
    body += buf;
  }
  body += "]}";
  return body;
}

std::string Head(const std::string& method, const std::string& target,
                 size_t body_size) {
  std::string head = method + " " + target + " HTTP/1.0\r\nHost: 127.0.0.1\r\n";
  if (method == "POST") {
    head += "Content-Type: application/json\r\nContent-Length: " +
            std::to_string(body_size) + "\r\n";
  }
  return head + "\r\n";
}

// A Poisson process conditioned on its count: `count` uniform arrival times
// over [0, window), sorted.
std::vector<double> Arrivals(int count, double window, Rng* rng) {
  std::vector<double> times(count);
  for (double& t : times) t = rng->Unit() * window;
  std::sort(times.begin(), times.end());
  return times;
}

// Checks an HTTP response: 2xx status and the route's JSON shape.
std::string CheckResponse(const Request& req, const std::string& raw) {
  int status = 0;
  if (std::sscanf(raw.c_str(), "HTTP/%*d.%*d %d", &status) != 1) {
    return "no status line";
  }
  if (status < 200 || status > 299) {
    return "status " + std::to_string(status) + ": " +
           raw.substr(0, std::min<size_t>(raw.size(), 200));
  }
  const size_t split = raw.find("\r\n\r\n");
  if (split == std::string::npos) return "no header end";
  auto json = powerlog::metrics::JsonValue::Parse(raw.substr(split + 4));
  if (!json.ok()) return "body is not JSON";
  using Kind = powerlog::metrics::JsonValue::Kind;
  auto is = [&](const char* key, Kind kind) {
    const auto* v = json->Find(key);
    return v != nullptr && v->kind() == kind;
  };
  switch (req.route) {
    case kLookup: {
      const auto* vertex = json->Find("vertex");
      const auto* value = json->Find("value");
      if (vertex == nullptr || vertex->kind() != Kind::kNumber ||
          vertex->number() != static_cast<double>(req.vertex) ||
          value == nullptr) {
        return "bad /lookup shape";
      }
      // PageRank values are always finite; unreached sssp rows are null.
      if (value->kind() != Kind::kNumber &&
          !(req.pair == 1 && value->kind() == Kind::kNull)) {
        return "bad /lookup value";
      }
      return "";
    }
    case kTopK: {
      const auto* top = json->Find("topk");
      if (top == nullptr || top->kind() != Kind::kArray ||
          top->array().size() != kTopKSize) {
        return "bad /topk shape";
      }
      const bool ascending = req.pair == 1;
      double prev = 0.0;
      for (size_t i = 0; i < top->array().size(); ++i) {
        const auto* value = top->array()[i].Find("value");
        if (value == nullptr || value->kind() != Kind::kNumber ||
            top->array()[i].Find("vertex") == nullptr) {
          return "bad /topk entry";
        }
        if (i > 0 && (ascending ? value->number() < prev
                                : value->number() > prev)) {
          return "/topk out of order";
        }
        prev = value->number();
      }
      return "";
    }
    case kRun: {
      const auto* converged = json->Find("converged");
      if (converged == nullptr || converged->kind() != Kind::kBool ||
          !converged->bool_value() || !is("supersteps", Kind::kNumber)) {
        return "/run did not converge";
      }
      return "";
    }
    default: {
      const auto* converged = json->Find("converged");
      if (converged == nullptr || converged->kind() != Kind::kBool ||
          !converged->bool_value() || !is("version", Kind::kNumber) ||
          !is("path", Kind::kString)) {
        return "bad /mutate response";
      }
      return "";
    }
  }
}

// The open-loop generator: one thread, at most `max_open` connections.
class LoadGenerator {
 public:
  LoadGenerator(int port, int max_open) : port_(port), max_open_(max_open) {}

  // Issues every request at (or after) its due time; returns when all have
  // completed. Times in the outcomes are seconds from `start`.
  std::vector<Outcome> Run(const std::vector<Request>& requests,
                           double start) {
    prctl(PR_SET_TIMERSLACK, 1UL);  // no timer slack on this thread's sleeps
    std::vector<Outcome> out(requests.size());
    struct Conn {
      int fd;
      size_t index;
      size_t written;
      bool connected;
      std::string payload;
    };
    std::vector<Conn> open;
    std::vector<bool> slot_busy(static_cast<size_t>(max_open_), false);
    size_t next = 0;
    char buf[65536];
    while (next < requests.size() || !open.empty()) {
      double now = Now() - start;
      while (next < requests.size() &&
             static_cast<int>(open.size()) < max_open_ &&
             now >= requests[next].due) {
        Conn conn{Connect(), next, 0, false,
                  requests[next].head + requests[next].body};
        out[next].sent = now;
        if (conn.fd < 0) {
          out[next].done = now;
        } else {
          const auto free_slot =
              std::find(slot_busy.begin(), slot_busy.end(), false);
          out[next].slot = static_cast<int>(free_slot - slot_busy.begin());
          *free_slot = true;
          open.push_back(std::move(conn));
        }
        ++next;
        now = Now() - start;
      }
      // Sleep until shortly before the next due time, or until a
      // connection is ready. The last kSpinSeconds are spun, so a send is
      // not made late by the wake-up of a timed sleep.
      double wait = 0.1;
      if (next < requests.size() &&
          static_cast<int>(open.size()) < max_open_) {
        wait = std::max(
            0.0, std::min(wait, requests[next].due - now - kSpinSeconds));
      }
      std::vector<pollfd> fds;
      for (const Conn& c : open) {
        const bool want_write = !c.connected || c.written < c.payload.size();
        fds.push_back({c.fd, static_cast<short>(want_write ? POLLOUT : POLLIN),
                       0});
      }
      timespec ts;
      ts.tv_sec = static_cast<time_t>(wait);
      ts.tv_nsec =
          static_cast<long>((wait - static_cast<double>(ts.tv_sec)) * 1e9);
      if (ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR) {
        std::perror("ppoll");
        std::exit(1);
      }
      std::vector<Conn> still_open;
      for (size_t i = 0; i < open.size(); ++i) {
        Conn& c = open[i];
        Outcome& o = out[c.index];
        const short ev = fds[i].revents;
        bool finished = false;
        if (ev != 0 && !c.connected) {
          int err = 0;
          socklen_t len = sizeof(err);
          getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
          if (err != 0) {
            finished = true;
          } else {
            c.connected = true;
            o.connected = Now() - start;
          }
        }
        if (!finished && c.connected && c.written < c.payload.size() &&
            (ev & POLLOUT) != 0) {
          const ssize_t n = ::send(c.fd, c.payload.data() + c.written,
                                   c.payload.size() - c.written, MSG_NOSIGNAL);
          if (n > 0) {
            c.written += static_cast<size_t>(n);
          } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
            finished = true;
          }
        } else if (!finished && c.connected &&
                   (ev & (POLLIN | POLLHUP | POLLERR)) != 0) {
          const ssize_t n = ::read(c.fd, buf, sizeof(buf));
          if (n > 0) {
            o.response.append(buf, static_cast<size_t>(n));
          } else if (n == 0) {
            o.io_ok = true;
            finished = true;
          } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
            finished = true;
          }
        }
        if (finished) {
          o.done = Now() - start;
          slot_busy[static_cast<size_t>(o.slot)] = false;
          ::close(c.fd);
        } else {
          still_open.push_back(std::move(c));
        }
      }
      open = std::move(still_open);
    }
    return out;
  }

 private:
  int Connect() const {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0) return -1;
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
        errno != EINPROGRESS) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

  int port_;
  int max_open_;
};

// Resident values of a pair, read through the public point lookup.
std::vector<double> ResidentValues(const powerlog::serving::Materialization& m,
                                   VertexId n) {
  std::vector<double> values(n);
  for (VertexId v = 0; v < n; ++v) {
    auto value = m.Lookup(v);
    values[v] = value.ok() ? *value : std::nan("");
  }
  return values;
}

int64_t Counter(const powerlog::metrics::MetricsSnapshot& snap,
                const std::string& name) {
  for (const auto& [key, value] : snap.counters) {
    if (key == name) return value;
  }
  return 0;
}

}  // namespace

int RunServe(const Args& args) {
  const double calibration_ms = CalibrationMs();
  Report report;
  SpanLog spans;
  Rng rng(args.seed);
  const uint64_t graph_seed = rng.Fork();
  const int nproc = ProbeHost().nproc;

  std::vector<Pair> pairs;
  for (const char* program : {"pagerank", "sssp"}) {
    auto entry = powerlog::datalog::GetCatalogEntry(program);
    if (!entry.ok()) {
      std::fprintf(stderr, "%s\n", entry.status().ToString().c_str());
      return 1;
    }
    pairs.push_back({program, entry->source, std::string(program) == "sssp",
                     nullptr});
  }

  // Set-up, repeated so its time is a median: build the graph, materialise
  // both pairs, start the server. The last repetition stays up.
  powerlog::serving::ServingOptions options;
  options.engine = UnmodelledEngine();
  options.engine.collect_metrics = args.trace;
  std::unique_ptr<powerlog::serving::ServingCatalog> catalog;
  std::unique_ptr<powerlog::ExpositionServer> server;
  Graph base;
  int port = 0;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (server) server->Stop();
    server.reset();
    catalog.reset();
    const double t0 = Now();
    base = BuildGraph(graph_seed);
    const double t1 = Now();
    catalog = std::make_unique<powerlog::serving::ServingCatalog>(options);
    for (Pair& pair : pairs) {
      auto handle = catalog->MaterializeSource(pair.program, kDataset,
                                               pair.source_text, base);
      if (!handle.ok()) {
        std::fprintf(stderr, "materialize %s: %s\n", pair.program.c_str(),
                     handle.status().ToString().c_str());
        return 1;
      }
      pair.handle = *handle;
    }
    server = std::make_unique<powerlog::ExpositionServer>();
    server->SetHandler(powerlog::serving::MakeServingHandler(catalog.get()));
    auto bound = server->Start(0, kHandlerThreads);
    if (!bound.ok()) {
      std::fprintf(stderr, "server: %s\n", bound.status().ToString().c_str());
      return 1;
    }
    port = *bound;
    const double t2 = Now();
    report.Sample("setup_s", t2 - t0);
    report.Sample("graph.build_s", t1 - t0);
  }
  const VertexId n = base.num_vertices();
  report.Scalar("graph.csr_mb",
                (static_cast<double>(base.offsets().size()) * sizeof(uint64_t) +
                 static_cast<double>(base.num_edges()) * sizeof(powerlog::Edge)) *
                    2.0 / (1024.0 * 1024.0));

  // The seeded schedule, batches and sources.
  std::vector<int> counts(kNumRoutes);
  for (int r = 0; r < kNumRoutes; ++r) {
    counts[r] = std::max(kLoad[r].min_count,
                         static_cast<int>(kLoad[r].rate * args.seconds + 0.5));
  }
  std::vector<std::vector<powerlog::MutationBatch>> batches(2);
  const int direct_applies[2] = {args.trace ? kDirectApplySum : 0,
                                 args.trace ? kDirectApplyMin : 0};
  for (int p = 0; p < 2; ++p) {
    batches[p] = DrawBatches(
        base, counts[p == 0 ? kMutateSum : kMutateMin] + direct_applies[p],
        &rng);
  }
  auto random_source = [&]() {
    while (true) {
      const VertexId v = static_cast<VertexId>(rng.Below(n));
      if (base.OutDegree(v) > 0) return v;
    }
  };
  std::vector<Request> schedule;
  int next_batch[2] = {0, 0};
  for (int r = 0; r < kNumRoutes; ++r) {
    for (double due : Arrivals(counts[r], args.seconds, &rng)) {
      Request req;
      req.route = static_cast<Route>(r);
      req.due = due;
      const std::string pair_param =
          "&dataset=" + std::string(kDataset);
      switch (req.route) {
        case kLookup:
        case kTopK:
          req.pair = static_cast<int>(rng.Below(2));
          break;
        case kRun:
        case kMutateMin:
          req.pair = 1;
          break;
        case kMutateSum:
          req.pair = 0;
          break;
        default:
          break;
      }
      const std::string who = "program=" + pairs[req.pair].program + pair_param;
      if (req.route == kLookup) {
        req.vertex = static_cast<VertexId>(rng.Below(n));
        req.head = Head("GET", "/lookup?" + who + "&v=" +
                                   std::to_string(req.vertex), 0);
      } else if (req.route == kTopK) {
        req.head = Head("GET", "/topk?" + who + "&k=" + std::to_string(kTopKSize) +
                                   (req.pair == 1 ? "&order=asc" : ""), 0);
      } else if (req.route == kRun) {
        req.head = Head("GET", "/run?" + who + "&nocache=1&source=" +
                                   std::to_string(random_source()), 0);
      } else {
        req.body = MutationBody(batches[req.pair][next_batch[req.pair]++]);
        req.head = Head("POST", "/mutate?" + who, req.body.size());
      }
      schedule.push_back(std::move(req));
    }
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const Request& a, const Request& b) { return a.due < b.due; });

  spans.NameTrack(2, "direct handle calls");
  spans.NameTrack(9, "generator lateness");
  for (int c = 0; c < nproc; ++c) {
    spans.NameTrack(10 + c, "requests " + std::to_string(c));
  }

  // The timed window.
  LoadGenerator generator(port, nproc);
  const double start = Now() + 0.01;
  std::vector<Outcome> outcomes = generator.Run(schedule, start);

  std::vector<Report::Request> records;
  double last_done = 0.0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Request& req = schedule[i];
    const Outcome& o = outcomes[i];
    std::string error = o.io_ok ? CheckResponse(req, o.response)
                                : std::string("connection failed");
    const bool ok = error.empty();
    report.Attempt(ok, std::string(kRouteNames[req.route]) + ": " + error);
    records.push_back({req.route, req.due * 1e3, o.sent * 1e3,
                       o.connected * 1e3, o.done * 1e3, ok});
    last_done = std::max(last_done, o.done);
    if (args.trace && o.slot >= 0) {
      const int tid = 10 + o.slot;
      spans.Add(std::string("http ") + kRouteNames[req.route], start + o.sent,
                start + o.done, tid, static_cast<int64_t>(i));
      if (o.connected >= 0.0) {
        spans.Add("connect", start + o.sent, start + o.connected, tid,
                  static_cast<int64_t>(i));
      }
      if (o.sent > req.due) {
        spans.Add("late", start + req.due, start + o.sent, 9,
                  static_cast<int64_t>(i));
      }
    }
  }
  std::vector<std::string> routes(kRouteNames, kRouteNames + kNumRoutes);
  report.SetRequests(routes, std::move(records));
  report.Scalar("loadgen.last_done_s", last_done);
  report.Scalar("loadgen.nominal_window_s", args.seconds);

  std::string simd_dispatch = pairs[0].handle->Stats().simd_dispatch;

  if (args.trace) {
    // Direct handle calls alongside the HTTP routes.
    Rng direct(rng.Fork());
    for (int i = 0; i < kDirectReads; ++i) {
      const Pair& pair = pairs[i % 2];
      const VertexId v = static_cast<VertexId>(direct.Below(n));
      const double t0 = Now();
      auto value = pair.handle->Lookup(v);
      const double t1 = Now();
      report.Attempt(value.ok(), "direct lookup");
      report.Sample("serving.lookup_us", (t1 - t0) * 1e6);
    }
    for (int i = 0; i < kDirectTopK; ++i) {
      const double t0 = Now();
      auto top = pairs[i % 2].handle->TopK(kTopKSize, i % 2 == 1);
      const double t1 = Now();
      report.Attempt(top.ok() && top->size() == kTopKSize, "direct topk");
      report.Sample("serving.topk_us", (t1 - t0) * 1e6);
      spans.Add("Materialization::TopK", t0, t1, 2);
    }
    for (int i = 0; i < kDirectRuns; ++i) {
      const double t0 = Now();
      auto run = pairs[1].handle->Run(random_source(), 0, false);
      const double t1 = Now();
      report.Attempt(run.ok() && run->converged, "direct run");
      report.Sample("serving.run_ms", (t1 - t0) * 1e3);
      spans.Add("Materialization::Run", t0, t1, 2);
    }
    for (int i = 0; i < 20; ++i) {
      const std::string& text = pairs[i % 2].source_text;
      const double t0 = Now();
      auto check = powerlog::PowerLog::Check(text);
      const double t1 = Now();
      auto kernel = powerlog::PowerLog::Compile(text);
      const double t2 = Now();
      report.Attempt(check.ok() && check->satisfied && kernel.ok(),
                     "check/compile");
      report.Sample("checker.check_ms", (t1 - t0) * 1e3);
      report.Sample("datalog.compile_ms", (t2 - t1) * 1e3);
    }
    // Graph patching and re-convergence planning, without advancing a
    // version: ApplyMutationBatch + PlanReconvergence on the head snapshot.
    for (int i = 0; i < kDirectPatches; ++i) {
      const Pair& pair = pairs[i % 2];
      const auto graph = pair.handle->graph();
      const auto& batch = batches[i % 2][direct.Below(batches[i % 2].size())];
      const double t0 = Now();
      auto patched = powerlog::ApplyMutationBatch(*graph, batch);
      const double t1 = Now();
      if (!patched.ok()) {
        report.Attempt(false, "direct patch");
        continue;
      }
      const std::vector<double> x = ResidentValues(*pair.handle, n);
      const double t2 = Now();
      auto plan = powerlog::runtime::PlanReconvergence(
          pair.handle->kernel(), *graph, patched->graph, patched->ops, x);
      const double t3 = Now();
      report.Attempt(plan.ok(), "direct plan");
      report.Sample("graph.patch_ms", (t1 - t0) * 1e3);
      report.Sample("reconverge.plan_ms", (t3 - t2) * 1e3);
    }
    // Direct Apply on both pairs with the batches the window did not use;
    // after a few pagerank applies, a cold run on the new snapshot.
    double engine_s = 0.0, apply_s = 0.0;
    for (int p = 0; p < 2; ++p) {
      const std::string series =
          p == 0 ? "serving.apply_sum_ms" : "serving.apply_min_ms";
      for (int i = 0; i < direct_applies[p]; ++i) {
        const auto& batch = batches[p][next_batch[p]++];
        const double t0 = Now();
        auto stats = pairs[p].handle->Apply(batch);
        const double t1 = Now();
        report.Attempt(stats.ok() && (stats->path == "noop" ||
                                      stats->engine.converged),
                       "direct apply");
        if (!stats.ok()) continue;
        report.Sample(series, (t1 - t0) * 1e3);
        spans.Add(p == 0 ? "Apply pagerank" : "Apply sssp", t0, t1, 2);
        engine_s += stats->engine.wall_seconds;
        apply_s += stats->apply_seconds;
        if (p == 0 && i < kColdComparisons) {
          powerlog::RunOptions cold_options;
          cold_options.engine = UnmodelledEngine();
          const double c0 = Now();
          auto cold = powerlog::PowerLog::Run(
              pairs[p].handle->kernel(), *pairs[p].handle->graph(),
              cold_options);
          const double c1 = Now();
          report.Attempt(cold.ok() && cold->stats.converged, "cold run");
          report.Sample("serving.mutate_vs_cold_sum_x", (c1 - c0) / (t1 - t0));
        }
      }
    }
    report.Scalar("serving.apply_engine_share",
                  apply_s > 0.0 ? engine_s / apply_s : 0.0);
    // Tracing overhead: the same cold sssp run with and without the
    // engine's metrics collection, interleaved.
    for (int i = 0; i < 20; ++i) {
      powerlog::RunOptions run_options;
      run_options.engine = UnmodelledEngine();
      run_options.engine.collect_metrics = i % 2 == 0;
      run_options.source = random_source();
      const double t0 = Now();
      auto run = powerlog::PowerLog::Run(pairs[1].handle->kernel(),
                                         *pairs[1].handle->graph(), run_options);
      const double t1 = Now();
      report.Attempt(run.ok() && run->stats.converged, "overhead run");
      report.Sample(i % 2 == 0 ? "trace.run_traced_ms" : "trace.run_plain_ms",
                    (t1 - t0) * 1e3);
    }
    report.Scalar("trace.overhead_ratio",
                  Median(report.Series("trace.run_traced_ms")) /
                      Median(report.Series("trace.run_plain_ms")));
    const auto snap = catalog->Metrics();
    report.Scalar("serving.path_delta",
                  static_cast<double>(Counter(snap, "serving.mutations.delta_path")));
    report.Scalar("serving.path_rederive",
                  static_cast<double>(Counter(snap, "serving.mutations.rederive_path")));
    report.Scalar("serving.path_recompute",
                  static_cast<double>(Counter(snap, "serving.mutations.fallback_path")));
    report.Scalar("serving.admission_rejects",
                  static_cast<double>(Counter(snap, "serving.run.rejected")));
    report.Scalar("serving.timeouts",
                  static_cast<double>(Counter(snap, "serving.run.timeouts")));
  }

  server->Stop();

  // After the window: each pair's resident state must equal a cold run on
  // its final snapshot, and the snapshot must hold exactly the base graph
  // plus the inserts minus the deletes that were sent.
  for (int p = 0; p < 2; ++p) {
    const Pair& pair = pairs[p];
    const auto graph = pair.handle->graph();
    int64_t expected_edges = static_cast<int64_t>(base.num_edges());
    for (int b = 0; b < next_batch[p]; ++b) {
      expected_edges += kOpsPerBatch - 2 * kDeletesPerBatch;
    }
    powerlog::RunOptions cold_options;
    cold_options.engine = UnmodelledEngine();
    auto cold = powerlog::PowerLog::Run(pair.source_text, *graph, cold_options);
    std::string error;
    if (static_cast<int64_t>(graph->num_edges()) != expected_edges) {
      error = "final snapshot has " + std::to_string(graph->num_edges()) +
              " edges, expected " + std::to_string(expected_edges);
    } else if (!cold.ok() || !cold->stats.converged) {
      error = "cold run failed";
    } else {
      const double tolerance =
          pair.exact ? 0.0
                     : SumTolerance(pair.handle->kernel().termination.epsilon,
                                    kPageRankDamping);
      error = CompareValues(ResidentValues(*pair.handle, n), cold->values,
                            pair.exact, tolerance);
    }
    report.Attempt(error.empty(), pair.program + " final state: " + error);
  }
  server.reset();
  catalog.reset();

  RecordHost(&report, simd_dispatch, calibration_ms);
  report.Scalar("peak_rss_mb", PeakRssMb());
  if (args.trace && !args.trace_out.empty() &&
      !WriteFile(args.trace_out, spans.ToChromeJson())) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    return 1;
  }
  return WriteFile(args.out, report.ToJson()) ? 0 : 1;
}

}  // namespace perfbench
