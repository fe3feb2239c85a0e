#include "common/flags_util.h"

#include <libgen.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"

namespace benu::flags {

const char* Value(int argc, char** argv, const char* name,
                  const char* fallback) {
  const std::string prefix = std::string(name) + "=";
  const char* found = fallback;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      found = argv[i] + prefix.size();
    }
  }
  return found;
}

std::vector<std::string> Values(int argc, char** argv, const char* name) {
  const std::string prefix = std::string(name) + "=";
  std::vector<std::string> values;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      values.emplace_back(argv[i] + prefix.size());
    }
  }
  return values;
}

bool Has(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

size_t SizeValue(int argc, char** argv, const char* name, size_t fallback) {
  const char* v = Value(argc, argv, name, nullptr);
  return v == nullptr ? fallback : std::strtoul(v, nullptr, 10);
}

int IntValue(int argc, char** argv, const char* name, int fallback) {
  const char* v = Value(argc, argv, name, nullptr);
  return v == nullptr ? fallback : std::atoi(v);
}

long long Int64Value(int argc, char** argv, const char* name,
                     long long fallback) {
  const char* v = Value(argc, argv, name, nullptr);
  return v == nullptr ? fallback : std::atoll(v);
}

double DoubleValue(int argc, char** argv, const char* name, double fallback) {
  const char* v = Value(argc, argv, name, nullptr);
  return v == nullptr ? fallback : std::atof(v);
}

bool BoolValue(int argc, char** argv, const char* name, bool fallback) {
  const char* v = Value(argc, argv, name, nullptr);
  return v == nullptr ? fallback : std::atoi(v) != 0;
}

uint16_t PortValue(int argc, char** argv, const char* name,
                   uint16_t fallback) {
  const char* v = Value(argc, argv, name, nullptr);
  return v == nullptr
             ? fallback
             : static_cast<uint16_t>(std::strtoul(v, nullptr, 10));
}

std::vector<ServerProcess>& SpawnedRegistry() {
  static std::vector<ServerProcess> registry;
  return registry;
}

void KillServers(std::vector<ServerProcess>& servers) {
  for (auto& s : servers) {
    if (s.pid > 0) kill(s.pid, SIGTERM);
  }
  for (auto& s : servers) {
    if (s.pid > 0) {
      waitpid(s.pid, nullptr, 0);
      s.pid = -1;  // reaped: the atexit handler must not touch it again
    }
  }
}

void CleanupSpawnedAtExit() { KillServers(SpawnedRegistry()); }

std::string SelfDir() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  BENU_CHECK(n > 0) << "readlink /proc/self/exe failed";
  buf[n] = '\0';
  return dirname(buf);
}

ServerProcess SpawnKvServer(const std::string& binary,
                            const KvServerSpawnOptions& options) {
  int pipefd[2];
  BENU_CHECK(pipe(pipefd) == 0) << "pipe failed";
  const pid_t parent = getpid();
  const pid_t pid = fork();
  BENU_CHECK(pid >= 0) << "fork failed";
  if (pid == 0) {
    // Die with the spawner: atexit does not run when a BENU_CHECK aborts
    // the parent, but the kernel delivers this signal unconditionally.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);  // parent died before the prctl
    close(pipefd[0]);
    dup2(pipefd[1], STDOUT_FILENO);
    close(pipefd[1]);
    const std::string graph_arg = "--graph=" + options.graph_spec;
    const std::string part_arg =
        "--partitions=" + std::to_string(options.partitions);
    const std::string servers_arg =
        "--servers=" + std::to_string(options.servers);
    const std::string index_arg = "--index=" + std::to_string(options.index);
    const std::string replica_arg =
        "--replica=" + std::to_string(options.replica);
    const std::string replicas_arg =
        "--replicas=" + std::to_string(options.replicas);
    const std::string compress_arg =
        std::string("--compress=") + (options.compress ? "1" : "0");
    const std::string relabel_arg =
        std::string("--relabel=") + (options.relabel ? "1" : "0");
    execl(binary.c_str(), binary.c_str(), graph_arg.c_str(), part_arg.c_str(),
          servers_arg.c_str(), index_arg.c_str(), replica_arg.c_str(),
          replicas_arg.c_str(), compress_arg.c_str(), relabel_arg.c_str(),
          "--port=0", static_cast<char*>(nullptr));
    std::perror("execl benu_kv_server");
    _exit(127);
  }
  close(pipefd[1]);
  FILE* out = fdopen(pipefd[0], "r");
  BENU_CHECK(out != nullptr) << "fdopen failed";
  ServerProcess proc;
  proc.pid = pid;
  char line[256];
  while (std::fgets(line, sizeof(line), out) != nullptr) {
    unsigned port = 0;
    if (std::sscanf(line, "LISTENING port=%u", &port) == 1) {
      proc.port = static_cast<uint16_t>(port);
      break;
    }
  }
  BENU_CHECK(proc.port != 0)
      << "server " << options.index << " did not report a listening port";
  // Leave the pipe open: the child's stdout stays valid for its
  // lifetime, and we only needed the first line.
  return proc;
}

}  // namespace benu::flags
