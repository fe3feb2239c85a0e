// Dynamic-graph maintenance bench: S-BENU incremental plans vs full
// recomputation. Replays a deterministic mixed insert/delete edge
// stream in epoch batches through a DynamicRunner (VersionedAdjacency-
// Store + incremental plans + epoch-tagged DbCache) and, at every
// epoch, also runs a full recount at the same snapshot. Each batch-size
// row reports both costs and their ratio; every epoch's maintained
// total is CHECKed bit-identical to the recount, so the speedups are
// for *exact* maintenance.
//
// Acceptance (enforced outside BENU_BENCH_SMOKE): at batches of 1% of
// the base edges the incremental path must be >= 5x faster than
// recomputing from scratch, the paper-motivating regime for S-BENU.
//
//   --transport=sim|loopback|tcp   adjacency backend (default sim)
//   --spawn-servers=K              TCP: fork K benu_kv_server children
//                                  per sweep row (default 2)
//   --pattern=NAME                 pattern to maintain (default triangle)
//   --kv-server-bin=PATH           benu_kv_server location (default:
//                                  ../src/benu_kv_server next to this
//                                  binary)
//
// Results go to BENCH_dynamic.json (schema: docs/benchmarks.md).

#include <cstdio>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/flags_util.h"
#include "common/stopwatch.h"
#include "distributed/dynamic_runner.h"
#include "storage/tcp_transport.h"
#include "storage/transport.h"

namespace {

using namespace benu;
using namespace benu::bench;

using EdgeSet = std::set<std::pair<VertexId, VertexId>>;

std::pair<VertexId, VertexId> Norm(VertexId u, VertexId v) {
  return u < v ? std::make_pair(u, v) : std::make_pair(v, u);
}

/// Deterministic mixed stream: ~40% of ops delete present edges, the
/// rest insert absent ones, so retraction and addition passes both run
/// every epoch and the edge count stays roughly stationary.
std::vector<std::vector<EdgeDelta>> MakeStream(const Graph& base,
                                               size_t num_epochs,
                                               size_t batch, uint64_t seed) {
  std::mt19937_64 rng(seed);
  const size_t n = base.NumVertices();
  EdgeSet present;
  for (const auto& [u, v] : base.Edges()) present.insert(Norm(u, v));
  std::vector<std::vector<EdgeDelta>> stream;
  for (size_t e = 0; e < num_epochs; ++e) {
    std::vector<EdgeDelta> ops;
    while (ops.size() < batch) {
      const VertexId u = static_cast<VertexId>(rng() % n);
      const VertexId v = static_cast<VertexId>(rng() % n);
      if (u == v) continue;
      const auto key = Norm(u, v);
      const bool exists = present.count(key) != 0;
      if (exists && rng() % 10 < 4) {
        ops.push_back({u, v, /*insert=*/false});
        present.erase(key);
      } else if (!exists) {
        ops.push_back({u, v, /*insert=*/true});
        present.insert(key);
      }
    }
    stream.push_back(std::move(ops));
  }
  return stream;
}

struct SweepOutcome {
  double inc_seconds = 0;       ///< sum of ApplyBatch wall times
  double recount_seconds = 0;   ///< sum of per-epoch full recounts
  Count added = 0;
  Count retracted = 0;
  Count seed_tasks = 0;
  Count final_total = 0;
};

/// One batch-size sweep: baseline, then `num_epochs` maintained epochs,
/// each CHECKed against a full recount at the same snapshot.
SweepOutcome RunSweep(std::shared_ptr<Transport> transport,
                      const Graph& base, const Graph& pattern,
                      size_t num_epochs, size_t batch, uint64_t seed) {
  DynamicRunnerOptions options;
  auto runner =
      std::move(DynamicRunner::Create(std::move(transport), pattern, options))
          .value();
  auto baseline = runner->RunBaseline();
  BENU_CHECK(baseline.ok()) << baseline.status().ToString();

  const auto stream = MakeStream(base, num_epochs, batch, seed);
  SweepOutcome out;
  for (const auto& ops : stream) {
    auto report = runner->ApplyBatch(ops);
    BENU_CHECK(report.ok()) << report.status().ToString();
    out.inc_seconds += report->seconds;
    out.added += report->added;
    out.retracted += report->retracted;
    out.seed_tasks += report->seed_tasks;

    Stopwatch recount_watch;
    auto recount = runner->Recount();
    out.recount_seconds += recount_watch.ElapsedSeconds();
    BENU_CHECK(recount.ok()) << recount.status().ToString();
    BENU_CHECK(*recount == report->total)
        << "epoch " << report->epoch << ": maintained " << report->total
        << " but full recount found " << *recount;
    out.final_total = report->total;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);

  const std::string transport_name =
      flags::Value(argc, argv, "--transport", "sim");
  const size_t spawn_servers =
      flags::SizeValue(argc, argv, "--spawn-servers", 2);
  const std::string pattern_name =
      flags::Value(argc, argv, "--pattern", "triangle");
  const std::string kv_server_bin = flags::Value(
      argc, argv, "--kv-server-bin",
      (flags::SelfDir() + "/../src/benu_kv_server").c_str());

  const size_t vertices = SizeFor(4000, 1200, 80);
  const size_t edges = vertices * 8;
  const size_t num_epochs = SizeFor(12, 8, 3);
  char graph_spec[64];
  std::snprintf(graph_spec, sizeof(graph_spec), "er:%zu,%zu,7", vertices,
                edges);
  Graph base = std::move(GenerateFromSpec(graph_spec)).value();
  const Graph pattern = LoadPattern(pattern_name);

  // Batch sizes as fractions of the base edge count; 1% is the
  // acceptance row.
  const double kFractions[] = {0.001, 0.01, 0.05};

  std::atexit(flags::CleanupSpawnedAtExit);
  std::vector<BenchRecord> records;
  double one_percent_speedup = 0;
  for (const double fraction : kFractions) {
    const size_t batch =
        std::max<size_t>(1, static_cast<size_t>(fraction * edges));

    // Fresh backend per row: a TCP fleet's attested epoch sequence is
    // per-store, so every sweep starts its own servers at epoch 0.
    std::shared_ptr<Transport> transport;
    std::vector<flags::ServerProcess> servers;
    if (transport_name == "sim") {
      transport = MakeSimulatedTransport(base, 8);
    } else if (transport_name == "loopback") {
      transport = MakeLoopbackTransport(base, 8);
    } else if (transport_name == "tcp") {
      flags::KvServerSpawnOptions opts;
      opts.graph_spec = graph_spec;
      opts.partitions = 8;
      opts.servers = spawn_servers;
      opts.relabel = false;  // dynamic runs use raw ids as the total order
      for (size_t i = 0; i < spawn_servers; ++i) {
        opts.index = i;
        servers.push_back(flags::SpawnKvServer(kv_server_bin, opts));
      }
      std::vector<Endpoint> endpoints;
      for (const auto& s : servers) {
        endpoints.push_back({"127.0.0.1", s.port});
      }
      auto connected = ConnectTcpTransport(endpoints);
      BENU_CHECK(connected.ok()) << connected.status().ToString();
      transport = *connected;
    } else {
      BENU_CHECK(false) << "unknown --transport=" << transport_name
                        << " (sim|loopback|tcp)";
    }

    const SweepOutcome out = RunSweep(transport, base, pattern, num_epochs,
                                      batch, /*seed=*/29);
    transport.reset();
    flags::KillServers(servers);

    const double speedup = out.recount_seconds / out.inc_seconds;
    const Count maintained = out.added + out.retracted;
    if (fraction == 0.01) one_percent_speedup = speedup;
    std::printf(
        "%-9s batch=%-5zu (%.1f%%): inc=%.4fs recount=%.4fs speedup=%.1fx "
        "maintained=%llu (+%llu/-%llu) total=%llu\n",
        transport_name.c_str(), batch, fraction * 100, out.inc_seconds,
        out.recount_seconds, speedup,
        static_cast<unsigned long long>(maintained),
        static_cast<unsigned long long>(out.added),
        static_cast<unsigned long long>(out.retracted),
        static_cast<unsigned long long>(out.final_total));

    BenchRecord record;
    record.name = transport_name + "_batch_" + std::to_string(batch);
    record.params = {{"transport", transport_name},
                     {"pattern", pattern_name},
                     {"graph", graph_spec},
                     {"batch", std::to_string(batch)},
                     {"epochs", std::to_string(num_epochs)}};
    record.seconds = out.inc_seconds;
    record.counters = {
        {"recount_seconds", out.recount_seconds},
        {"speedup", speedup},
        {"matches_added", static_cast<double>(out.added)},
        {"matches_retracted", static_cast<double>(out.retracted)},
        {"maintained_per_sec",
         static_cast<double>(maintained) / out.inc_seconds},
        {"seed_tasks", static_cast<double>(out.seed_tasks)},
        {"final_total", static_cast<double>(out.final_total)},
    };
    records.push_back(std::move(record));
  }

  // The acceptance regime: small-batch maintenance must decisively beat
  // recomputation. Smoke runs shrink the workload until timings are
  // noise, so the ratio is only enforced at measurement scale.
  if (!SmokeScale()) {
    BENU_CHECK(one_percent_speedup >= 5.0)
        << "incremental maintenance at 1% batches is only "
        << one_percent_speedup << "x faster than recomputation (need 5x)";
  }

  WriteBenchJson("BENCH_dynamic.json", "dynamic", records);
  return 0;
}
