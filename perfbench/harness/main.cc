// perfbench_harness: the measuring half of the wall-clock benchmark.
//
// Runs one workload against the BENU library and the benu_kv_server /
// benu_service binaries, checks every answer against a reference count,
// and prints one JSON object of raw samples on its last stdout line.
// perfbench/run.py turns the samples into the reported metrics.
//
//   perfbench_harness --workload=NAME --seed=N --seconds=S --trace=0|1
//       --bin-dir=DIR --out-dir=DIR
//   perfbench_harness --selftest
//
// Workloads: cache-resident, cache-miss-tcp, service-mix, dynamic-stream
// (see perfbench/README.md). Graphs, edge streams and query schedules
// are generated from --seed; the library and the spawned binaries only
// receive the generated inputs. All end-to-end samples are wall-clock.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/wcoj.h"
#include "common/flags_util.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "core/executor.h"
#include "core/match_consumer.h"
#include "distributed/benu_driver.h"
#include "distributed/dynamic_runner.h"
#include "distributed/task.h"
#include "graph/generators.h"
#include "graph/patterns.h"
#include "plan/plan_search.h"
#include "plan/symmetry_breaking.h"
#include "service/service_client.h"
#include "storage/tcp_transport.h"
#include "storage/transport.h"
#include "trace.h"
#include "tracing_transport.h"

namespace perfbench {
namespace {

using namespace benu;

// ---------------------------------------------------------------------
// Arguments, output and small helpers
// ---------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string bin_dir;
  std::string out_dir = ".";
  bool selftest = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  a.workload = flags::Value(argc, argv, "--workload", "");
  a.seed = static_cast<uint64_t>(flags::Int64Value(argc, argv, "--seed", 1));
  a.seconds = flags::DoubleValue(argc, argv, "--seconds", 10);
  a.trace = flags::BoolValue(argc, argv, "--trace", false);
  a.bin_dir = flags::Value(argc, argv, "--bin-dir", "");
  a.out_dir = flags::Value(argc, argv, "--out-dir", ".");
  a.selftest = flags::Has(argc, argv, "--selftest");
  return a;
}

/// Flat JSON object writer (numbers, number arrays and raw values), keys
/// in insertion order.
class JsonOut {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    Raw(key, buf);
  }
  void Nums(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    char buf[64];
    for (size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.9g", i ? ", " : "", v[i]);
      s += buf;
    }
    Raw(key, s + "]");
  }
  void Raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + value;
  }
  std::string Dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string BaSpec(size_t n, size_t k, uint64_t seed) {
  return "ba:" + std::to_string(n) + "," + std::to_string(k) + "," +
         std::to_string(seed % 1000000007ull);
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t i = std::min(
      v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
  return v[i];
}

/// Peak resident set (VmHWM) of `pid`, MiB; 0 if unreadable.
double PeakRssMb(pid_t pid) {
  const std::string path = "/proc/" + std::to_string(pid) + "/status";
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

uint64_t CounterValue(const char* name) {
  return metrics::MetricsRegistry::Global().GetCounter(name)->Value();
}

uint64_t Dispatches() {
  static const char* kKinds[] = {"INI", "DBQ", "INT", "ENU", "TRC", "RES"};
  uint64_t total = 0;
  for (const char* k : kKinds) {
    const std::string name = std::string("executor.instr.") + k + ".count";
    total += CounterValue(name.c_str());
  }
  return total;
}

Graph MustPattern(const std::string& name) {
  auto p = GetPattern(name);
  BENU_CHECK(p.ok()) << name << ": " << p.status().ToString();
  return std::move(p).value();
}

/// Runs `fn` in a forked child and returns the numbers it produced, so
/// reference computations never touch this process's peak RSS. Call
/// only while this process has no threads of its own.
std::vector<double> InChild(const std::function<std::vector<double>()>& fn) {
  int fds[2];
  BENU_CHECK(pipe(fds) == 0) << "pipe failed";
  std::fflush(stdout);
  const pid_t pid = fork();
  BENU_CHECK(pid >= 0) << "fork failed";
  if (pid == 0) {
    close(fds[0]);
    std::string text;
    for (double v : fn()) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g\n", v);
      text += buf;
    }
    size_t off = 0;
    while (off < text.size()) {
      const ssize_t n = write(fds[1], text.data() + off, text.size() - off);
      if (n <= 0) _exit(1);
      off += static_cast<size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) text.append(buf, n);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  BENU_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "reference computation failed";
  std::vector<double> out;
  std::istringstream in(text);
  double v;
  while (in >> v) out.push_back(v);
  return out;
}

/// WCOJ reference count of `pattern` in `graph` and its wall time.
std::pair<Count, double> WcojReference(const Graph& graph,
                                       const Graph& pattern) {
  const auto v = InChild([&] {
    const int64_t t0 = NowNs();
    auto r = RunWcoj(graph, pattern, ComputeSymmetryBreakingConstraints(pattern),
                     WcojConfig{});
    BENU_CHECK(r.ok()) << r.status().ToString();
    return std::vector<double>{static_cast<double>(r->matches),
                               Seconds(NowNs() - t0)};
  });
  BENU_CHECK(v.size() == 2) << "reference count missing";
  return {static_cast<Count>(v[0]), v[1]};
}

// ---------------------------------------------------------------------
// Spawned processes
// ---------------------------------------------------------------------

/// A fleet of benu_kv_server processes serving one graph spec, and a
/// compressed TCP transport connected to it.
struct Fleet {
  std::vector<flags::ServerProcess> servers;
  std::shared_ptr<Transport> transport;

  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() { Stop(); }

  void Stop() {
    transport.reset();
    flags::KillServers(servers);
    servers.clear();
  }
};

constexpr size_t kPartitions = 8;
/// Set-ups per run; the median is reported.
constexpr int kSetupReps = 7;
constexpr size_t kKvServers = 2;

std::unique_ptr<Fleet> StartFleet(const std::string& bin_dir,
                                  const std::string& graph_spec) {
  auto fleet = std::make_unique<Fleet>();
  for (size_t i = 0; i < kKvServers; ++i) {
    flags::KvServerSpawnOptions o;
    o.graph_spec = graph_spec;
    o.partitions = kPartitions;
    o.servers = kKvServers;
    o.index = i;
    o.compress = true;
    o.relabel = true;
    fleet->servers.push_back(
        flags::SpawnKvServer(bin_dir + "/benu_kv_server", o));
  }
  std::vector<ReplicaGroup> groups;
  for (const auto& s : fleet->servers) {
    groups.push_back(ReplicaGroup{{Endpoint{"127.0.0.1", s.port}}});
  }
  auto t = ConnectTcpTransport(groups);
  BENU_CHECK(t.ok()) << "connect: " << t.status().ToString();
  fleet->transport = *t;
  return fleet;
}

/// A spawned benu_service process. Its stdout pipe stays open while it
/// runs, so a later write there cannot kill it with SIGPIPE.
struct ServiceProcess {
  pid_t pid = -1;
  uint16_t port = 0;
  FILE* out = nullptr;

  ServiceProcess() = default;
  ServiceProcess(const ServiceProcess&) = delete;
  ServiceProcess& operator=(const ServiceProcess&) = delete;
  ~ServiceProcess() { Stop(); }

  void Stop() {
    if (pid > 0) {
      kill(pid, SIGTERM);
      waitpid(pid, nullptr, 0);
      pid = -1;
    }
    if (out != nullptr) {
      std::fclose(out);
      out = nullptr;
    }
  }
};

std::unique_ptr<ServiceProcess> StartService(
    const std::string& bin_dir, const std::vector<std::string>& flags_in) {
  int fds[2];
  BENU_CHECK(pipe(fds) == 0) << "pipe failed";
  const std::string binary = bin_dir + "/benu_service";
  std::vector<std::string> argv_s = {binary};
  argv_s.insert(argv_s.end(), flags_in.begin(), flags_in.end());
  argv_s.push_back("--port=0");
  // Built before fork: the child must not allocate.
  std::vector<char*> argv;
  for (auto& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);
  const pid_t parent = getpid();
  std::fflush(stdout);
  const pid_t pid = fork();
  BENU_CHECK(pid >= 0) << "fork failed";
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    close(fds[0]);
    dup2(fds[1], STDOUT_FILENO);
    close(fds[1]);
    const int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) dup2(devnull, STDERR_FILENO);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(fds[1]);
  auto proc = std::make_unique<ServiceProcess>();
  proc->pid = pid;
  proc->out = fdopen(fds[0], "r");
  BENU_CHECK(proc->out != nullptr) << "fdopen failed";
  char line[256];
  while (std::fgets(line, sizeof(line), proc->out) != nullptr) {
    unsigned port = 0;
    if (std::sscanf(line, "SERVING port=%u", &port) == 1) {
      proc->port = static_cast<uint16_t>(port);
      break;
    }
  }
  BENU_CHECK(proc->port != 0) << "benu_service did not report a port";
  return proc;
}

// ---------------------------------------------------------------------
// Batch enumeration (RunBenu) helpers
// ---------------------------------------------------------------------

/// One (graph, pattern, cache) configuration run single-threaded.
struct BatchCase {
  std::string graph_spec;
  Graph graph;  // degree-relabeled, as every transport serves it
  std::string pattern_name;
  Graph pattern;
  size_t cache_bytes = 0;
  size_t prefetch_budget = 0;
};

BenuOptions BatchOptions(const BatchCase& c,
                         std::shared_ptr<Transport> transport) {
  BenuOptions o;
  o.relabel_by_degree = false;
  o.cluster.num_workers = 1;
  o.cluster.threads_per_worker = 1;
  o.cluster.execution_threads = 1;
  o.cluster.max_runtime_threads = 1;
  o.cluster.db_partitions = kPartitions;
  o.cluster.db_cache_bytes = c.cache_bytes;
  o.cluster.prefetch_budget = c.prefetch_budget;
  o.cluster.transport = std::move(transport);
  return o;
}

/// Wall seconds of one RunBenu call; -1 if it failed or miscounted.
double TimedRunBenu(const BatchCase& c, std::shared_ptr<Transport> transport,
                    Count expect, BenuResult* out = nullptr) {
  const int64_t t0 = NowNs();
  auto r = RunBenu(c.graph, c.pattern, BatchOptions(c, std::move(transport)));
  const double dt = Seconds(NowNs() - t0);
  if (!r.ok()) {
    std::fprintf(stderr, "RunBenu failed: %s\n", r.status().ToString().c_str());
    return -1;
  }
  if (r->run.total_matches != expect) {
    std::fprintf(stderr, "RunBenu counted %llu, expected %llu\n",
                 static_cast<unsigned long long>(r->run.total_matches),
                 static_cast<unsigned long long>(expect));
    return -1;
  }
  if (out != nullptr) *out = std::move(r).value();
  return dt;
}

/// Outcome counters of a measured loop.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Repeats `op` (returning wall seconds, or < 0 on failure) until
/// `seconds` have elapsed and at least `min_reps` ran.
std::vector<double> MeasureLoop(double seconds, size_t min_reps, Tally* tally,
                                const std::function<double()>& op) {
  std::vector<double> samples;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < deadline || tally->attempted < min_reps) {
    const double dt = op();
    tally->Add(dt >= 0);
    if (dt >= 0) samples.push_back(dt);
    if (tally->failed > 0 && tally->attempted >= min_reps &&
        NowNs() >= deadline) {
      break;
    }
  }
  return samples;
}

/// Direct-executor count and wall seconds: the plan run through
/// PlanExecutor::RunTask over the CSR, single-threaded, no cache.
std::pair<Count, double> RunDirect(const BatchCase& c) {
  const int64_t t0 = NowNs();
  auto plan = GenerateBestPlan(c.pattern, DataGraphStats::FromGraph(c.graph));
  BENU_CHECK(plan.ok()) << plan.status().ToString();
  const auto tasks = GenerateSearchTasks(c.graph, plan->plan, 0);
  DirectAdjacencyProvider provider(&c.graph);
  TriangleCache tcache;
  auto executor = PlanExecutor::Create(&plan->plan, &provider, &tcache);
  BENU_CHECK(executor.ok()) << executor.status().ToString();
  CountingConsumer consumer(plan->plan);
  for (const SearchTask& task : tasks) (*executor)->RunTask(task, &consumer);
  return {consumer.matches(), Seconds(NowNs() - t0)};
}

// ---------------------------------------------------------------------
// The single-thread layer ladder (traced runs only)
// ---------------------------------------------------------------------

struct LadderRung {
  const char* name;
  Count count = 0;
  double seconds = 0;
  /// TCP retries, timeouts and reconnects during the rung.
  uint64_t tcp_faults = 0;
};

/// TCP retries, timeouts and reconnects so far, process-wide.
uint64_t TcpFaults() {
  return CounterValue("transport.tcp.retries") +
         CounterValue("transport.tcp.timeouts") +
         CounterValue("transport.tcp.reconnects");
}

/// direct → cache (raw) → codec → loopback → TCP → service, each rung
/// timed as the median of `reps` runs and checked against the rung
/// below. Returns false on any count mismatch.
bool RunLadder(const BatchCase& c, const std::string& bin_dir, size_t reps,
               Count expect, std::vector<LadderRung>* rungs) {
  auto median_of = [&](const std::function<double()>& op) {
    std::vector<double> v;
    for (size_t i = 0; i < reps; ++i) {
      const double dt = op();
      if (dt < 0) return -1.0;
      v.push_back(dt);
    }
    return Median(v);
  };
  bool ok = true;
  auto add = [&](const char* name, Count count, double seconds) {
    if (seconds < 0) ok = false;
    if (!rungs->empty() && rungs->back().count != count) {
      std::fprintf(stderr, "ladder: %s counted %llu, %s counted %llu\n", name,
                   static_cast<unsigned long long>(count),
                   rungs->back().name,
                   static_cast<unsigned long long>(rungs->back().count));
      ok = false;
    }
    rungs->push_back(LadderRung{name, count, seconds, 0});
  };

  Count direct_count = 0;
  const double direct_s = median_of([&] {
    auto [n, s] = RunDirect(c);
    direct_count = n;
    return s;
  });
  add("direct", direct_count, direct_s);
  if (direct_count != expect) ok = false;

  auto raw = MakeSimulatedTransport(c.graph, kPartitions, /*compress=*/false);
  add("cache", expect, median_of([&] { return TimedRunBenu(c, raw, expect); }));
  auto sim = MakeSimulatedTransport(c.graph, kPartitions, /*compress=*/true);
  add("codec", expect, median_of([&] { return TimedRunBenu(c, sim, expect); }));
  auto loop = MakeLoopbackTransport(c.graph, kPartitions, /*compress=*/true);
  add("loopback", expect,
      median_of([&] { return TimedRunBenu(c, loop, expect); }));
  {
    auto fleet = StartFleet(bin_dir, c.graph_spec);
    const uint64_t faults = TcpFaults();
    add("tcp", expect, median_of([&] {
          return TimedRunBenu(c, fleet->transport, expect);
        }));
    rungs->back().tcp_faults = TcpFaults() - faults;
  }
  {
    const size_t cache_mb =
        std::max<size_t>(1, (c.cache_bytes + (1u << 20) - 1) >> 20);
    auto svc = StartService(
        bin_dir, {"--graph=" + c.graph_spec, "--threads=1",
                  "--cache-mb=" + std::to_string(cache_mb),
                  "--partitions=" + std::to_string(kPartitions)});
    auto client = service::ServiceClient::Connect("127.0.0.1", svc->port);
    BENU_CHECK(client.ok()) << client.status().ToString();
    wire::QuerySpec spec;
    spec.pattern = c.pattern_name;
    Count served = 0;
    // The first query also runs plan search; time warm queries only.
    (void)(*client)->Execute(spec);
    const double s = median_of([&] {
      const int64_t t0 = NowNs();
      auto r = (*client)->Execute(spec);
      if (!r.ok()) return -1.0;
      served = r->matches;
      return Seconds(NowNs() - t0);
    });
    add("service", served, s);
  }
  return ok;
}

void EmitLadder(const std::vector<LadderRung>& rungs,
                std::map<std::string, double>* layers, JsonOut* out) {
  std::map<std::string, double> t;
  std::string desc = "{";
  for (const auto& r : rungs) {
    t[r.name] = r.seconds;
    (*layers)["storage.transport.retries"] += static_cast<double>(r.tcp_faults);
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": [%llu, %.9g]",
                  desc.size() > 1 ? ", " : "", r.name,
                  static_cast<unsigned long long>(r.count), r.seconds);
    desc += buf;
  }
  out->Raw("ladder", desc + "}");
  (*layers)["core.direct_s"] = t["direct"];
  (*layers)["storage.cache.tax_s"] = t["cache"] - t["direct"];
  (*layers)["storage.transport.loopback_tax_s"] = t["loopback"] - t["codec"];
  (*layers)["storage.transport.tcp_tax_s"] = t["tcp"] - t["loopback"];
  (*layers)["service.tax_ms"] = (t["service"] - t["codec"]) * 1e3;
}

/// Self time per operation for the benchmark's span names, mapped onto
/// the per-layer metric names.
void EmitSelfTimes(const std::vector<Span>& spans,
                   std::map<std::string, double>* layers) {
  const auto self = SelfSeconds(spans);
  std::map<std::string, size_t> roots;
  for (const Span& s : spans) {
    if (s.parent == 0) ++roots[s.name];
  }
  auto per_op = [&](const char* root, double total) {
    const size_t n = roots[root];
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  };
  auto get = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  if (roots["distributed.run_benu"] > 0) {
    (*layers)["distributed.self_s"] =
        per_op("distributed.run_benu", get("distributed.run_benu"));
  }
  if (roots["dynamic.apply_batch"] > 0) {
    (*layers)["distributed.dynamic.self_s"] =
        per_op("dynamic.apply_batch", get("dynamic.apply_batch"));
  }
  if (roots["service.query"] > 0) {
    (*layers)["service.self_ms"] =
        per_op("service.query", get("service.query")) * 1e3;
  }
}

/// Statistics of the fetch spans caused by root spans named `root`:
/// p50/p99 µs and busy seconds per root operation. Fetch spans have no
/// children, so their busy time is also their self time.
void EmitFetchStats(const std::vector<Span>& spans, const std::string& root,
                    std::map<std::string, double>* layers) {
  std::set<uint64_t> roots;
  for (const Span& s : spans) {
    if (s.parent == 0 && s.name == root) roots.insert(s.id);
  }
  const size_t ops = roots.size();
  std::vector<double> us;
  double busy = 0;
  for (const Span& s : spans) {
    if ((s.name != "transport.fetch" && s.name != "transport.fetch_batch") ||
        roots.count(s.parent) == 0) {
      continue;
    }
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    us.push_back(d / 1e3);
    busy += d / 1e9;
  }
  (*layers)["storage.transport.fetch_us_p50"] = Percentile(us, 0.5);
  (*layers)["storage.transport.fetch_us_p99"] = Percentile(us, 0.99);
  (*layers)["storage.transport.busy_s"] =
      ops == 0 ? 0.0 : busy / static_cast<double>(ops);
}

void EmitLayers(const std::map<std::string, double>& layers, JsonOut* out) {
  std::string obj = "{";
  for (const auto& [k, v] : layers) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.9g",
                  obj.size() > 1 ? ", " : "", k.c_str(), v);
    obj += buf;
  }
  out->Raw("layers", obj + "}");
}

void WriteTrace(const Args& a) {
  const std::string path = a.out_dir + "/trace-" + a.workload + "-seed" +
                           std::to_string(a.seed) + ".json";
  if (!WriteSpans(Tracer::Get().Spans(), path)) {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
  }
}

/// Median over 5 repetitions of the GenerateBestPlan time for all of
/// `patterns`, ms, with a traced span around each call.
double PlanSearchMs(const std::vector<Graph>& patterns, const Graph& graph) {
  Tracer::Get().SetEnabled(true);
  std::vector<double> v;
  const DataGraphStats stats = DataGraphStats::FromGraph(graph);
  for (int rep = 0; rep < 5; ++rep) {
    const uint64_t group = Tracer::Get().NewId();
    double total = 0;
    for (const Graph& p : patterns) {
      ScopedSpan span("plan.search", group, 0);
      const int64_t t0 = NowNs();
      auto r = GenerateBestPlan(p, stats);
      BENU_CHECK(r.ok()) << r.status().ToString();
      total += Seconds(NowNs() - t0);
    }
    v.push_back(total * 1e3);
  }
  Tracer::Get().SetEnabled(false);
  return Median(v);
}

// ---------------------------------------------------------------------
// cache-resident: RunBenu with the whole graph in the DbCache
// ---------------------------------------------------------------------

/// cache-resident: q5 on kResidentGraphs `ba:500,6` graphs per run (calls
/// cycle through them, so one run's median covers several draws of the
/// generator), with a DbCache kResidentCacheFactor times the raw
/// adjacency, so the whole graph stays resident.
constexpr size_t kResidentVertices = 500;
constexpr size_t kResidentEdgesPerVertex = 6;
constexpr const char* kResidentPattern = "q5";
constexpr size_t kResidentGraphs = 6;
constexpr size_t kResidentCacheFactor = 4;

int RunCacheResident(const Args& a) {
  std::vector<Graph> inputs;
  std::vector<BatchCase> cases(kResidentGraphs);
  std::vector<Count> expects;
  double wcoj_s = 0;
  for (size_t g = 0; g < kResidentGraphs; ++g) {
    BatchCase& c = cases[g];
    c.graph_spec = BaSpec(kResidentVertices, kResidentEdgesPerVertex,
                          Mix(a.seed, 1 + 100 * g));
    auto generated = GenerateFromSpec(c.graph_spec);
    BENU_CHECK(generated.ok()) << generated.status().ToString();
    inputs.push_back(std::move(generated).value());
    c.pattern_name = kResidentPattern;
    c.pattern = MustPattern(kResidentPattern);
    c.graph = inputs.back().RelabelByDegree();
    c.cache_bytes = c.graph.AdjacencyBytes() * kResidentCacheFactor;
    const auto [count, seconds] = WcojReference(c.graph, c.pattern);
    expects.push_back(count);
    if (g == 0) wcoj_s = seconds;
  }
  // The traced run and the ladder use the first graph.
  BatchCase& c = cases[0];
  const Count expect = expects[0];

  JsonOut out;
  Tally tally;

  // Set-up: degree relabeling plus building (and pre-encoding) the
  // stores. Repeated, the median is reported.
  std::vector<double> setup;
  std::vector<std::shared_ptr<Transport>> transports;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    transports.clear();
    const int64_t t0 = NowNs();
    for (const Graph& input : inputs) {
      transports.push_back(MakeSimulatedTransport(input.RelabelByDegree(),
                                                  kPartitions, true));
    }
    setup.push_back(Seconds(NowNs() - t0));
  }
  out.Nums("setup_s", setup);
  std::shared_ptr<Transport> transport = transports[0];
  auto run_once = [&] { return TimedRunBenu(c, transport, expect); };

  if (!a.trace) {
    size_t next = 0;
    double work = 0;
    double work_s = 0;
    out.Nums("op_s", MeasureLoop(a.seconds, 3, &tally, [&] {
      const size_t g = next++ % cases.size();
      const double dt = TimedRunBenu(cases[g], transports[g], expects[g]);
      if (dt >= 0) {
        work += static_cast<double>(expects[g]);
        work_s += dt;
      }
      return dt;
    }));
    out.Num("peak_rss_mb", PeakRssMb(getpid()));
    out.Num("work", work);
    out.Num("work_s", work_s);
  } else {
    std::map<std::string, double> layers;
    // Untraced and traced calls alternate, so both see the same machine.
    auto traced_transport = std::make_shared<TracingTransport>(transport);
    std::vector<double> untraced, traced;
    std::vector<double> driver_s, hit, round_trips, bytes;
    std::vector<double> dispatches, decoded, fused, fallback;
    size_t call = 0;
    MeasureLoop(a.seconds * 2 / 3, 6, &tally, [&] {
      if (call++ % 2 == 0) {
        const double dt = run_once();
        if (dt >= 0) untraced.push_back(dt);
        return dt;
      }
      const uint64_t group = Tracer::Get().NewId();
      const uint64_t d0 = Dispatches();
      const uint64_t dv0 = CounterValue("codec.decode.values");
      const uint64_t f0 = CounterValue("codec.intersect.fused");
      const uint64_t fb0 = CounterValue("codec.intersect.fallback_decodes");
      const Count r0 = transport->stats().round_trips.load();
      const Count b0 = transport->stats().bytes.load();
      BenuResult result;
      double dt;
      Tracer::Get().SetEnabled(true);
      {
        ScopedSpan span("distributed.run_benu", group, 0);
        Tracer::Get().SetAmbient(group, span.id());
        dt = TimedRunBenu(c, traced_transport, expect, &result);
      }
      Tracer::Get().SetEnabled(false);
      // TimedRunBenu checked the count; with asynchronous prefetch the
      // round trips vary run to run, so --selftest checks those.
      if (dt < 0) return dt;
      traced.push_back(dt);
      const Count rts = transport->stats().round_trips.load() - r0;
      const ClusterRunResult& run = result.run;
      driver_s.push_back(dt - run.real_seconds - result.plan.elapsed_seconds);
      hit.push_back(run.CacheHitRate());
      round_trips.push_back(static_cast<double>(rts));
      bytes.push_back(static_cast<double>(transport->stats().bytes.load() - b0));
      dispatches.push_back(static_cast<double>(Dispatches() - d0));
      decoded.push_back(
          static_cast<double>(CounterValue("codec.decode.values") - dv0));
      fused.push_back(
          static_cast<double>(CounterValue("codec.intersect.fused") - f0));
      fallback.push_back(static_cast<double>(
          CounterValue("codec.intersect.fallback_decodes") - fb0));
      return dt;
    });
    const auto spans = Tracer::Get().Spans();
    EmitFetchStats(spans, "distributed.run_benu", &layers);
    EmitSelfTimes(spans, &layers);
    layers["trace.overhead_share"] =
        (Median(traced) - Median(untraced)) / Median(untraced);
    layers["distributed.driver_s"] = Median(driver_s);
    layers["storage.cache.hit_ratio"] = Median(hit);
    layers["storage.cache.resident_mb"] =
        traced_transport->peak_resident_bytes() / (1 << 20);
    layers["storage.transport.round_trips"] = Median(round_trips);
    layers["storage.transport.bytes_per_round_trip"] =
        Median(bytes) / std::max(1.0, Median(round_trips));
    layers["core.dispatches"] = Median(dispatches);
    layers["graph.codec.decoded_values"] = Median(decoded);
    layers["graph.codec.fused_intersects"] = Median(fused);
    layers["graph.codec.fallback_decodes"] = Median(fallback);
    layers["plan.search_ms"] = PlanSearchMs({c.pattern}, c.graph);
    layers["baselines.wcoj_s"] = wcoj_s;

    // Codec tax: the same run with raw (uncompressed) adjacency.
    auto raw = MakeSimulatedTransport(c.graph, kPartitions, false);
    transports.clear();
    std::vector<double> raw_s, comp_s;
    for (int rep = 0; rep < 3; ++rep) {
      const double r = TimedRunBenu(c, raw, expect);
      const double k = TimedRunBenu(c, transport, expect);
      tally.Add(r >= 0 && k >= 0);
      raw_s.push_back(r);
      comp_s.push_back(k);
    }
    layers["graph.codec.tax_s"] = Median(comp_s) - Median(raw_s);
    raw.reset();
    transport.reset();

    std::vector<LadderRung> rungs;
    tally.Add(RunLadder(c, a.bin_dir, 5, expect, &rungs));
    EmitLadder(rungs, &layers, &out);
    EmitLayers(layers, &out);
    WriteTrace(a);
  }
  out.Num("attempted", static_cast<double>(tally.attempted));
  out.Num("failed", static_cast<double>(tally.failed));
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

// ---------------------------------------------------------------------
// service-mix: an open loop into a spawned benu_service
// ---------------------------------------------------------------------

struct QueryKind {
  const char* pattern;
  std::vector<int32_t> labels;  // empty: unlabeled
  bool heavy;
};

const std::vector<QueryKind>& ServiceKinds() {
  static const std::vector<QueryKind> kinds = {
      {"triangle", {}, false}, {"square", {}, false},
      {"diamond", {}, false},  {"triangle", {0, 1, 2}, false},
      {"q5", {}, true},        {"clique5", {}, true},
  };
  return kinds;
}

/// An Erdős–Rényi graph: its query costs vary little from seed to seed,
/// so the heavy queries' share of the service stays alike across runs.
constexpr size_t kServiceVertices = 600;
constexpr size_t kServiceEdges = 3000;
constexpr int kServiceLabels = 3;
constexpr int kServiceThreads = 1;
/// Open-loop arrival rate, queries per second; one query in every
/// kHeavyEvery is heavy.
constexpr double kServiceRate = 30;
constexpr size_t kHeavyEvery = 10;
/// Client connections: two carry the short queries, one the heavy ones.
constexpr size_t kShortConnections = 2;

/// One open-loop query: times in ms from the start of the loop.
struct QueryRecord {
  double due_ms = 0;
  double sent_ms = 0;
  double done_ms = 0;
  bool heavy = false;
  bool ok = false;
  bool rejected = false;
  uint64_t tasks = 0;
  bool plan_hit = false;
};

/// Awaits the queries started on one connection, in submission order.
class Awaiter {
 public:
  Awaiter(service::ServiceClient* client, std::vector<QueryRecord>* records,
          const std::vector<Count>* expect, const std::vector<size_t>* kinds,
          int64_t origin_ns)
      : client_(client),
        records_(records),
        expect_(expect),
        kinds_(kinds),
        origin_ns_(origin_ns),
        thread_([this] { Loop(); }) {}
  Awaiter(const Awaiter&) = delete;
  Awaiter& operator=(const Awaiter&) = delete;
  ~Awaiter() { Finish(); }

  void Push(uint16_t tag, size_t index) {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back({tag, index});
    cv_.notify_one();
  }

  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
      cv_.notify_one();
    }
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Loop() {
    for (;;) {
      std::pair<uint16_t, size_t> item;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
        if (queue_.empty()) return;
        item = queue_.front();
        queue_.pop_front();
      }
      auto r = client_->Await(item.first);
      QueryRecord& rec = (*records_)[item.second];
      rec.done_ms = static_cast<double>(NowNs() - origin_ns_) / 1e6;
      if (!r.ok()) {
        rec.rejected = r.status().code() == StatusCode::kResourceExhausted;
        continue;
      }
      rec.tasks = r->tasks;
      rec.plan_hit = r->plan_cache_hit();
      rec.ok = !r->cancelled() &&
               r->matches == (*expect_)[(*kinds_)[item.second]];
    }
  }

  service::ServiceClient* client_;
  std::vector<QueryRecord>* records_;
  const std::vector<Count>* expect_;
  const std::vector<size_t>* kinds_;
  int64_t origin_ns_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::pair<uint16_t, size_t>> queue_;  // guarded by mu_
  bool closed_ = false;                            // guarded by mu_
  std::thread thread_;  // last: started once the members above exist
};

wire::QuerySpec SpecOf(const QueryKind& k) {
  wire::QuerySpec spec;
  spec.pattern = k.pattern;
  spec.pattern_labels = k.labels;
  return spec;
}

/// Runs the open loop for `seconds` at kServiceRate and returns one
/// record per scheduled query. Each query is timed from its due time.
std::vector<QueryRecord> OpenLoop(
    std::vector<std::unique_ptr<service::ServiceClient>>& clients,
    const std::vector<Count>& expect, double seconds, uint64_t seed) {
  const size_t n = static_cast<size_t>(seconds * kServiceRate);
  const auto& kinds_all = ServiceKinds();
  std::vector<size_t> shorts, heavies;
  for (size_t i = 0; i < kinds_all.size(); ++i) {
    (kinds_all[i].heavy ? heavies : shorts).push_back(i);
  }
  // Heavy queries sit at fixed, evenly spaced slots (taking turns), and
  // the short kinds rotate, so every seed loads the scheduler alike; the
  // seed picks where the rotation starts.
  std::vector<size_t> kinds(n);
  size_t next_kind = static_cast<size_t>(seed % shorts.size());
  for (size_t i = 0; i < n; ++i) {
    kinds[i] = i % kHeavyEvery == kHeavyEvery / 2
                   ? heavies[(i / kHeavyEvery) % heavies.size()]
                   : shorts[next_kind++ % shorts.size()];
  }

  std::vector<QueryRecord> records(n);
  std::vector<uint64_t> groups(n);
  const int64_t origin = NowNs() + 20'000'000;  // first query in 20 ms
  std::vector<std::unique_ptr<Awaiter>> awaiters;
  for (auto& c : clients) {
    awaiters.push_back(std::make_unique<Awaiter>(c.get(), &records, &expect,
                                                 &kinds, origin));
  }
  const double interval_ns = 1e9 / kServiceRate;
  size_t next_short = 0;
  for (size_t i = 0; i < n; ++i) {
    QueryRecord& rec = records[i];
    const int64_t due = origin + static_cast<int64_t>(interval_ns * i);
    rec.due_ms = static_cast<double>(due - origin) / 1e6;
    rec.heavy = kinds_all[kinds[i]].heavy;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due)));
    const int64_t sent = NowNs();
    rec.sent_ms = static_cast<double>(sent - origin) / 1e6;
    const size_t conn =
        rec.heavy ? kShortConnections : (next_short++ % kShortConnections);
    const uint64_t group = groups[i] = Tracer::Get().NewId();
    StatusOr<uint16_t> tag = Status::Internal("unsent");
    {
      ScopedSpan span("service.start_query", group, group);
      tag = clients[conn]->StartQuery(SpecOf(kinds_all[kinds[i]]));
    }
    if (!tag.ok()) {
      rec.done_ms = rec.sent_ms;
      rec.rejected = true;
      continue;
    }
    awaiters[conn]->Push(*tag, i);
  }
  for (auto& w : awaiters) w->Finish();
  if (Tracer::Get().enabled()) {
    // One root span per query from its due time to its completion; the
    // StartQuery span is its child (the root's id is the query's group).
    for (size_t i = 0; i < n; ++i) {
      Span root;
      root.name = "service.query";
      root.id = groups[i];
      root.group = groups[i];
      root.start_ns = origin + static_cast<int64_t>(records[i].due_ms * 1e6);
      root.end_ns = origin + static_cast<int64_t>(records[i].done_ms * 1e6);
      Tracer::Get().Record(std::move(root));
    }
  }
  return records;
}

std::string RecordsJson(const std::vector<QueryRecord>& records) {
  std::string s = "[";
  char buf[200];
  for (size_t i = 0; i < records.size(); ++i) {
    const QueryRecord& r = records[i];
    std::snprintf(buf, sizeof(buf), "%s[%.6f, %.6f, %.6f, %d, %d, %d, %llu, %d]",
                  i ? ", " : "", r.due_ms, r.sent_ms, r.done_ms, r.heavy ? 1 : 0,
                  r.ok ? 1 : 0, r.rejected ? 1 : 0,
                  static_cast<unsigned long long>(r.tasks), r.plan_hit ? 1 : 0);
    s += buf;
  }
  return s + "]";
}

int RunService(const Args& a) {
  const std::string spec = "er:" + std::to_string(kServiceVertices) + "," +
                           std::to_string(kServiceEdges) + "," +
                           std::to_string(Mix(a.seed, 3) % 1000000007ull);
  auto generated = GenerateFromSpec(spec);
  BENU_CHECK(generated.ok()) << generated.status().ToString();
  const Graph graph = std::move(generated).value();
  std::vector<int> data_labels(graph.NumVertices());
  for (size_t v = 0; v < data_labels.size(); ++v) {
    data_labels[v] = static_cast<int>(v % kServiceLabels);
  }

  // Solo counts: every query kind run alone through RunBenu.
  const auto& kinds = ServiceKinds();
  const auto solo_d = InChild([&] {
    std::vector<double> v;
    for (const QueryKind& k : kinds) {
      BenuOptions o;
      o.cluster.num_workers = 1;
      o.cluster.threads_per_worker = 1;
      o.cluster.db_cache_bytes = 1u << 30;
      if (!k.labels.empty()) {
        o.plan.pattern_labels.assign(k.labels.begin(), k.labels.end());
        o.data_labels = data_labels;
      }
      auto r = RunBenu(graph, MustPattern(k.pattern), o);
      BENU_CHECK(r.ok()) << r.status().ToString();
      v.push_back(static_cast<double>(r->run.total_matches));
    }
    return v;
  });
  BENU_CHECK(solo_d.size() == kinds.size()) << "solo counts missing";
  const std::vector<Count> solo(solo_d.begin(), solo_d.end());

  const std::vector<std::string> service_flags = {
      "--graph=" + spec,
      "--threads=" + std::to_string(kServiceThreads),
      "--labels=" + std::to_string(kServiceLabels),
      "--partitions=" + std::to_string(kPartitions),
      "--cache-mb=256",
      "--max-active=256",
      "--tau=16",
  };
  JsonOut out;
  Tally tally;
  std::vector<double> setup;
  std::unique_ptr<ServiceProcess> svc;
  std::vector<std::unique_ptr<service::ServiceClient>> clients;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    clients.clear();
    svc.reset();
    const int64_t t0 = NowNs();
    svc = StartService(a.bin_dir, service_flags);
    for (size_t i = 0; i < kShortConnections + 1; ++i) {
      auto c = service::ServiceClient::Connect("127.0.0.1", svc->port);
      BENU_CHECK(c.ok()) << c.status().ToString();
      clients.push_back(std::move(c).value());
    }
    // Ready to serve means a warm plan cache: run (and check) each
    // query kind once.
    for (size_t i = 0; i < kinds.size(); ++i) {
      auto r = clients[0]->Execute(SpecOf(kinds[i]));
      tally.Add(r.ok() && r->matches == solo[i]);
    }
    setup.push_back(Seconds(NowNs() - t0));
  }
  out.Nums("setup_s", setup);

  if (!a.trace) {
    out.Raw("queries", RecordsJson(OpenLoop(clients, solo, a.seconds,
                                            Mix(a.seed, 6))));
    out.Num("peak_rss_mb", PeakRssMb(svc->pid));
  } else {
    std::map<std::string, double> layers;
    out.Raw("queries_untraced",
            RecordsJson(OpenLoop(clients, solo, a.seconds / 2, Mix(a.seed, 6))));
    Tracer::Get().SetEnabled(true);
    out.Raw("queries",
            RecordsJson(OpenLoop(clients, solo, a.seconds / 2, Mix(a.seed, 6))));
    Tracer::Get().SetEnabled(false);
    // A lone short query against the idle service.
    std::vector<double> lone;
    for (int rep = 0; rep < 7; ++rep) {
      const int64_t t0 = NowNs();
      auto r = clients[0]->Execute(SpecOf(kinds[0]));
      tally.Add(r.ok() && r->matches == solo[0]);
      lone.push_back(Seconds(NowNs() - t0));
    }
    clients.clear();
    svc.reset();
    EmitSelfTimes(Tracer::Get().Spans(), &layers);

    std::vector<Graph> patterns;
    for (const QueryKind& k : kinds) patterns.push_back(MustPattern(k.pattern));
    layers["plan.search_ms"] = PlanSearchMs(patterns, graph.RelabelByDegree());

    BatchCase c;
    c.graph_spec = spec;
    c.graph = graph.RelabelByDegree();
    c.pattern_name = kinds[0].pattern;
    c.pattern = MustPattern(kinds[0].pattern);
    c.cache_bytes = 256u << 20;
    std::vector<LadderRung> rungs;
    tally.Add(RunLadder(c, a.bin_dir, 5, solo[0], &rungs));
    EmitLadder(rungs, &layers, &out);
    // Lone-query client latency against the in-process RunBenu of the
    // same query (the ladder's codec rung).
    for (const auto& r : rungs) {
      if (std::string(r.name) == "codec") {
        layers["service.tax_ms"] = (Median(lone) - r.seconds) * 1e3;
      }
    }
    EmitLayers(layers, &out);
    WriteTrace(a);
  }
  out.Num("attempted", static_cast<double>(tally.attempted));
  out.Num("failed", static_cast<double>(tally.failed));
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

// ---------------------------------------------------------------------
// dynamic-stream: DynamicRunner over a seeded insert+delete stream
// ---------------------------------------------------------------------

constexpr size_t kDynamicVertices = 4000;
constexpr const char* kDynamicPattern = "triangle";
constexpr size_t kDynamicEpochs = 20;
constexpr size_t kDynamicBatch = 6400;
/// Every this many epochs (and at the last one) the maintained total is
/// checked against a full Recount().
constexpr size_t kRecountEvery = 5;

/// Mixed stream: ~40% of ops delete a present edge, the rest insert an
/// absent one, so both maintenance passes run every epoch.
std::vector<std::vector<EdgeDelta>> MakeStream(const Graph& base,
                                               uint64_t seed) {
  std::mt19937_64 rng(seed);
  const size_t n = base.NumVertices();
  std::set<std::pair<VertexId, VertexId>> present;
  for (auto [u, v] : base.Edges()) present.insert({std::min(u, v), std::max(u, v)});
  std::vector<std::vector<EdgeDelta>> stream;
  for (size_t e = 0; e < kDynamicEpochs; ++e) {
    std::vector<EdgeDelta> ops;
    while (ops.size() < kDynamicBatch) {
      const auto u = static_cast<VertexId>(rng() % n);
      const auto v = static_cast<VertexId>(rng() % n);
      if (u == v) continue;
      const std::pair<VertexId, VertexId> key{std::min(u, v), std::max(u, v)};
      const bool exists = present.count(key) != 0;
      if (exists && rng() % 10 < 4) {
        ops.push_back({u, v, false});
        present.erase(key);
      } else if (!exists) {
        ops.push_back({u, v, true});
        present.insert(key);
      }
    }
    stream.push_back(std::move(ops));
  }
  return stream;
}

/// Per-pass observations of the traced dynamic run.
struct DynamicTrace {
  std::vector<double> recount_s;
  double overlay_vertices = 0;
  double resident_mb = 0;
  double hit_ratio = 0;
};

int RunDynamic(const Args& a) {
  const std::string spec = BaSpec(kDynamicVertices, 8, Mix(a.seed, 4));
  auto generated = GenerateFromSpec(spec);
  BENU_CHECK(generated.ok()) << generated.status().ToString();
  const Graph base = std::move(generated).value();
  const Graph pattern = MustPattern(kDynamicPattern);
  const auto [expect, wcoj_s] = WcojReference(base, pattern);
  const auto stream = MakeStream(base, Mix(a.seed, 5));

  JsonOut out;
  Tally tally;
  std::vector<double> setup, epoch_s;
  double maintained = 0;
  double apply_s = 0;

  // One pass: set-up (store, runner, baseline), then every epoch of the
  // stream. Passes repeat until the time is used.
  auto pass = [&](std::vector<double>* samples, DynamicTrace* tr) {
    const bool traced = tr != nullptr;
    Tracer::Get().SetEnabled(traced);
    const int64_t t0 = NowNs();
    std::shared_ptr<Transport> transport =
        MakeSimulatedTransport(base, kPartitions, true);
    if (traced) transport = std::make_shared<TracingTransport>(transport);
    auto runner = DynamicRunner::Create(transport, pattern);
    BENU_CHECK(runner.ok()) << runner.status().ToString();
    auto baseline = (*runner)->RunBaseline();
    setup.push_back(Seconds(NowNs() - t0));
    tally.Add(baseline.ok() && *baseline == expect);
    for (size_t e = 0; e < stream.size(); ++e) {
      const uint64_t group = Tracer::Get().NewId();
      StatusOr<EpochReport> rep = Status::Internal("not run");
      const int64_t e0 = NowNs();
      {
        ScopedSpan span("dynamic.apply_batch", group, 0);
        Tracer::Get().SetAmbient(group, span.id());
        rep = (*runner)->ApplyBatch(stream[e]);
      }
      const double dt = Seconds(NowNs() - e0);
      bool ok = rep.ok();
      if (ok) {
        samples->push_back(dt);
        apply_s += dt;
        maintained += static_cast<double>(rep->added + rep->retracted);
      }
      if (ok && (e % kRecountEvery == kRecountEvery - 1 ||
                 e + 1 == stream.size())) {
        const uint64_t rgroup = Tracer::Get().NewId();
        ScopedSpan span("dynamic.recount", rgroup, 0);
        Tracer::Get().SetAmbient(rgroup, span.id());
        const int64_t r0 = NowNs();
        auto recount = (*runner)->Recount();
        if (tr != nullptr) tr->recount_s.push_back(Seconds(NowNs() - r0));
        ok = recount.ok() && *recount == rep->total;
        if (!ok) {
          std::fprintf(stderr, "epoch %zu: maintained %llu, recount %llu\n", e,
                       static_cast<unsigned long long>(rep->total),
                       static_cast<unsigned long long>(
                           recount.ok() ? *recount : 0));
        }
      }
      tally.Add(ok);
    }
    if (tr != nullptr) {
      tr->overlay_vertices = metrics::MetricsRegistry::Global()
                                 .GetGauge("store.epoch.overlay_vertices")
                                 ->Value();
      tr->resident_mb =
          static_cast<double>((*runner)->cache().SizeBytes()) / (1 << 20);
      tr->hit_ratio = (*runner)->cache().stats().HitRate();
    }
    Tracer::Get().SetEnabled(false);
  };

  if (!a.trace) {
    const int64_t deadline = NowNs() + static_cast<int64_t>(a.seconds * 1e9);
    do {
      pass(&epoch_s, nullptr);
    } while (NowNs() < deadline);
    out.Nums("setup_s", setup);
    out.Nums("op_s", epoch_s);
    out.Num("work", maintained);
    out.Num("work_s", apply_s);
    out.Num("peak_rss_mb", PeakRssMb(getpid()));
  } else {
    std::map<std::string, double> layers;
    // Untraced and traced passes alternate, so both see the same machine.
    // Every pass replays the same stream, so the counters' per-epoch
    // averages over all passes describe the traced ones too.
    const uint64_t inv0 = CounterValue("db_cache.epoch_invalidations");
    const uint64_t pr0 = CounterValue("store.epoch.patched_reads");
    const uint64_t st0 = CounterValue("dynamic.seed_tasks");
    const uint64_t ep0 = CounterValue("dynamic.epochs");
    std::vector<double> untraced;
    DynamicTrace tr;
    const int64_t deadline = NowNs() + static_cast<int64_t>(a.seconds * 1e9);
    do {
      pass(&untraced, nullptr);
      pass(&epoch_s, &tr);
    } while (NowNs() < deadline);
    out.Nums("setup_s", setup);
    const double epochs =
        std::max<double>(1, CounterValue("dynamic.epochs") - ep0);
    const auto spans = Tracer::Get().Spans();
    EmitFetchStats(spans, "dynamic.apply_batch", &layers);
    EmitSelfTimes(spans, &layers);
    layers["trace.overhead_share"] =
        (Median(epoch_s) - Median(untraced)) / Median(untraced);
    layers["storage.cache.epoch_invalidations"] =
        (CounterValue("db_cache.epoch_invalidations") - inv0) / epochs;
    layers["storage.versioned.patched_reads"] =
        (CounterValue("store.epoch.patched_reads") - pr0) / epochs;
    layers["distributed.dynamic.seed_tasks_per_epoch"] =
        (CounterValue("dynamic.seed_tasks") - st0) / epochs;
    layers["storage.versioned.overlay_vertices"] = tr.overlay_vertices;
    layers["distributed.dynamic.recount_s"] = Median(tr.recount_s);
    layers["storage.cache.resident_mb"] = tr.resident_mb;
    layers["storage.cache.hit_ratio"] = tr.hit_ratio;
    layers["baselines.wcoj_s"] = wcoj_s;
    layers["plan.search_ms"] = PlanSearchMs({pattern}, base);

    BatchCase c;
    c.graph_spec = spec;
    c.graph = base.RelabelByDegree();
    c.pattern_name = kDynamicPattern;
    c.pattern = pattern;
    c.cache_bytes = 64u << 20;
    std::vector<LadderRung> rungs;
    tally.Add(RunLadder(c, a.bin_dir, 5, expect, &rungs));
    EmitLadder(rungs, &layers, &out);
    EmitLayers(layers, &out);
    WriteTrace(a);
  }
  out.Num("attempted", static_cast<double>(tally.attempted));
  out.Num("failed", static_cast<double>(tally.failed));
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

// ---------------------------------------------------------------------
// Self-test: the tracing decorator passes every call through unchanged
// ---------------------------------------------------------------------

int SelfTest() {
  const Graph graph =
      std::move(GenerateFromSpec("ba:300,5,11")).value().RelabelByDegree();
  bool ok = true;
  auto check = [&](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "selftest: %s\n", what);
      ok = false;
    }
  };
  for (bool compress : {false, true}) {
    auto plain = MakeLoopbackTransport(graph, kPartitions, compress);
    auto inner = MakeLoopbackTransport(graph, kPartitions, compress);
    TracingTransport wrapped(inner);
    check(std::string(wrapped.name()) == plain->name(), "name differs");
    check(wrapped.num_partitions() == plain->num_partitions(),
          "partitions differ");
    check(wrapped.num_vertices() == plain->num_vertices(), "vertices differ");
    check(wrapped.graph_hash() == plain->graph_hash(), "hash differs");
    check(wrapped.compressed() == plain->compressed(), "compression differs");
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      auto x = plain->Fetch(v);
      auto y = wrapped.Fetch(v);
      check(x.ok() && y.ok(), "fetch failed");
      if (!x.ok() || !y.ok()) break;
      check(*x->Materialize() == *y->Materialize(), "fetch payload differs");
      check(x->wire_bytes == y->wire_bytes, "fetch bytes differ");
    }
    std::vector<VertexId> keys;
    for (VertexId v = 0; v < graph.NumVertices(); v += 7) keys.push_back(v);
    auto bx = plain->FetchBatch(keys);
    auto by = wrapped.FetchBatch(keys);
    check(bx.ok() && by.ok(), "batch failed");
    if (bx.ok() && by.ok()) {
      check(bx->round_trips == by->round_trips && bx->bytes == by->bytes,
            "batch accounting differs");
      for (size_t i = 0; i < keys.size(); ++i) {
        check(*bx->values[i].Materialize() == *by->values[i].Materialize(),
              "batch payload differs");
      }
    }
    check(plain->stats().round_trips.load() ==
              inner->stats().round_trips.load(),
          "round trips differ");
    check(plain->stats().bytes.load() == inner->stats().bytes.load(),
          "bytes differ");

    // A full enumeration through the decorator counts what it counts
    // without it, with identical transport accounting.
    BatchCase c;
    c.graph = graph;
    c.pattern = MustPattern("q5");
    c.cache_bytes = 4096;
    c.prefetch_budget = 16;
    auto base_run = MakeLoopbackTransport(graph, kPartitions, compress);
    auto inner_run = MakeLoopbackTransport(graph, kPartitions, compress);
    auto wrapped_run = std::make_shared<TracingTransport>(inner_run);
    BenuOptions o = BatchOptions(c, base_run);
    o.cluster.force_sync_prefetch = true;
    auto r1 = RunBenu(c.graph, c.pattern, o);
    o.cluster.transport = wrapped_run;
    auto r2 = RunBenu(c.graph, c.pattern, o);
    check(r1.ok() && r2.ok(), "RunBenu failed");
    if (r1.ok() && r2.ok()) {
      check(r1->run.total_matches == r2->run.total_matches, "counts differ");
      check(base_run->stats().round_trips.load() ==
                inner_run->stats().round_trips.load(),
            "enumeration round trips differ");
    }
  }
  std::printf("{\"selftest\": %s}\n", ok ? "true" : "false");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  benu::SetLogLevel(benu::LogLevel::kError);
  std::signal(SIGPIPE, SIG_IGN);
  const Args a = ParseArgs(argc, argv);
  if (a.selftest) return SelfTest();
  if (a.bin_dir.empty()) {
    std::fprintf(stderr, "--bin-dir is required\n");
    return 2;
  }
  std::atexit(benu::flags::CleanupSpawnedAtExit);
  if (a.workload == "cache-resident") return RunCacheResident(a);
  if (a.workload == "service-mix") return RunService(a);
  if (a.workload == "dynamic-stream") return RunDynamic(a);
  std::fprintf(stderr, "unknown --workload=%s\n", a.workload.c_str());
  return 2;
}
