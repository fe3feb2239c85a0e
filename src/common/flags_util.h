#ifndef BENU_COMMON_FLAGS_UTIL_H_
#define BENU_COMMON_FLAGS_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include <sys/types.h>

namespace benu::flags {

// ---------------------------------------------------------------------
// The one flag-parsing vocabulary of every BENU binary (benu_driver,
// benu_kv_server, benu_service, benu_service_client): --name=value
// pairs scanned left to right, last occurrence wins for single-valued
// flags. Previously copy-pasted into each main; extracted here so the
// parsing (and its quirks) cannot drift between binaries.
// ---------------------------------------------------------------------

/// The value of the last `--name=value` occurrence, or `fallback` when
/// the flag is absent. `name` is the bare flag including dashes
/// ("--graph"); the returned pointer aliases argv (or `fallback`) and
/// needs no freeing.
const char* Value(int argc, char** argv, const char* name,
                  const char* fallback);

/// Every value of a repeatable `--name=value` flag, in argv order.
std::vector<std::string> Values(int argc, char** argv, const char* name);

/// True iff the bare flag `--name` (no value) appears.
bool Has(int argc, char** argv, const char* name);

/// Typed conveniences over Value(). Parsing mirrors what the mains did
/// inline: strtoul/atoi/atof semantics, so "8x" parses as 8 and
/// garbage parses as 0 — flags are operator input, not wire input.
size_t SizeValue(int argc, char** argv, const char* name, size_t fallback);
int IntValue(int argc, char** argv, const char* name, int fallback);
long long Int64Value(int argc, char** argv, const char* name,
                     long long fallback);
double DoubleValue(int argc, char** argv, const char* name, double fallback);
/// `--name=0` → false, anything else numeric-nonzero → true.
bool BoolValue(int argc, char** argv, const char* name, bool fallback);
/// Ports are u16; values above 65535 are truncated like the mains did.
uint16_t PortValue(int argc, char** argv, const char* name,
                   uint16_t fallback);

// ---------------------------------------------------------------------
// Spawned benu_kv_server children. benu_driver and benu_service both
// fork KV-server fleets (--spawn-servers=K) with identical fork/exec,
// port-parsing and cleanup code; this is that code, shared.
// ---------------------------------------------------------------------

/// One spawned benu_kv_server child process.
struct ServerProcess {
  pid_t pid = -1;
  uint16_t port = 0;
};

/// How to spawn one benu_kv_server (mirrors its flags).
struct KvServerSpawnOptions {
  std::string graph_spec;
  size_t partitions = 8;
  size_t servers = 1;
  size_t index = 0;
  size_t replica = 0;
  size_t replicas = 1;
  bool compress = true;
  bool relabel = true;
};

/// Every child spawned so far, visible to the atexit cleanup handler so
/// an early exit (failed connect, CHECK failure, count mismatch) cannot
/// leave orphan or zombie benu_kv_server processes behind.
std::vector<ServerProcess>& SpawnedRegistry();

/// SIGTERMs and reaps every live process in `servers` (pids are reset
/// so a second call — e.g. the atexit handler after an explicit kill —
/// is a no-op).
void KillServers(std::vector<ServerProcess>& servers);

/// atexit handler: KillServers(SpawnedRegistry()).
void CleanupSpawnedAtExit();

/// Directory holding the current executable (and benu_kv_server next to
/// it, for --spawn-servers).
std::string SelfDir();

/// Forks and execs one benu_kv_server at `binary`, parsing
/// "LISTENING port=N" from its stdout so ephemeral ports work. The
/// child asks the kernel for SIGKILL on parent death (PR_SET_PDEATHSIG),
/// so it cannot outlive the spawner even when a CHECK aborts it.
/// CHECK-fails if the child never reports a port.
ServerProcess SpawnKvServer(const std::string& binary,
                            const KvServerSpawnOptions& options);

}  // namespace benu::flags

#endif  // BENU_COMMON_FLAGS_UTIL_H_
