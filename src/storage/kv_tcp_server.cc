#include "storage/kv_tcp_server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <span>
#include <utility>

#include "common/logging.h"
#include "common/wire.h"
#include "storage/socket_io.h"

namespace benu {
namespace {

/// Little-endian u32 at `p` (frame header fields).
uint32_t ReadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// Same inbound-frame bound as net::ReadWireFrame.
constexpr uint32_t kMaxPayload = 1u << 30;

}  // namespace

KvTcpServer::KvTcpServer(const Graph* graph, size_t num_partitions,
                         size_t num_servers, size_t server_index,
                         size_t replica_index, size_t num_replicas,
                         bool support_encoding)
    : server_(graph, num_partitions, num_servers, server_index,
              replica_index, num_replicas, support_encoding) {}

KvTcpServer::~KvTcpServer() { Stop(); }

Status KvTcpServer::Listen(uint16_t port) {
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::IoError(std::string("bind: ") + std::strerror(errno));
  }
  if (listen(listen_fd_, 64) < 0) {
    return Status::IoError(std::string("listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    return Status::IoError(std::string("getsockname: ") +
                           std::strerror(errno));
  }
  port_ = ntohs(addr.sin_port);
  return Status::OK();
}

Status KvTcpServer::Start() {
  if (listen_fd_ < 0) {
    return Status::FailedPrecondition("Start() before Listen()");
  }
  epoll_fd_ = epoll_create1(0);
  if (epoll_fd_ < 0) {
    return Status::IoError(std::string("epoll_create1: ") +
                           std::strerror(errno));
  }
  if (pipe2(wake_fds_, O_NONBLOCK) < 0) {
    return Status::IoError(std::string("pipe2: ") + std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
    return Status::IoError(std::string("epoll_ctl(listen): ") +
                           std::strerror(errno));
  }
  ev.data.fd = wake_fds_[0];
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fds_[0], &ev) < 0) {
    return Status::IoError(std::string("epoll_ctl(wake): ") +
                           std::strerror(errno));
  }
  loop_thread_ = std::thread([this] { EventLoop(); });
  return Status::OK();
}

void KvTcpServer::AcceptReady() {
  for (;;) {
    const int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: drained; anything else: try again on next wakeup
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      net::CloseFd(fd);
      continue;
    }
    conns_.emplace(fd, Conn{});
  }
}

bool KvTcpServer::ServeReadable(int fd, Conn& conn) {
  uint8_t chunk[64 * 1024];
  bool peer_closed = false;
  for (;;) {
    const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn.in.insert(conn.in.end(), chunk, chunk + n);
      continue;
    }
    if (n == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;  // hard socket error
  }
  // Serve every complete frame buffered so far, coalescing all replies
  // into one outbound buffer (flushed below in a single send when the
  // kernel cooperates).
  for (;;) {
    const size_t avail = conn.in.size() - conn.in_pos;
    if (avail < wire::kHeaderBytes) break;
    const uint8_t* p = conn.in.data() + conn.in_pos;
    if (ReadU32(p) != wire::kMagic) return false;  // protocol garbage
    const uint32_t payload = ReadU32(p + 12);
    if (payload > kMaxPayload) return false;
    const size_t frame_bytes = wire::kHeaderBytes + payload;
    if (avail < frame_bytes) break;  // wait for the rest of the frame
    server_.HandleFrame(std::span<const uint8_t>(p, frame_bytes), &conn.out);
    conn.in_pos += frame_bytes;
  }
  if (conn.in_pos == conn.in.size()) {
    conn.in.clear();
    conn.in_pos = 0;
  } else if (conn.in_pos > (1u << 20)) {
    conn.in.erase(conn.in.begin(),
                  conn.in.begin() + static_cast<ptrdiff_t>(conn.in_pos));
    conn.in_pos = 0;
  }
  if (!FlushWrites(fd, conn)) return false;
  // A peer that half-closed after sending requests still gets its
  // replies flushed; once the buffer drains the connection is done.
  return !(peer_closed && conn.out_pos == conn.out.size());
}

bool KvTcpServer::FlushWrites(int fd, Conn& conn) {
  while (conn.out_pos < conn.out.size()) {
    const ssize_t n = send(fd, conn.out.data() + conn.out_pos,
                           conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn.want_write) {
          epoll_event ev{};
          ev.events = EPOLLIN | EPOLLOUT;
          ev.data.fd = fd;
          if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) < 0) return false;
          conn.want_write = true;
        }
        return true;  // resume on EPOLLOUT
      }
      return false;
    }
    conn.out_pos += static_cast<size_t>(n);
  }
  conn.out.clear();
  conn.out_pos = 0;
  if (conn.want_write) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) < 0) return false;
    conn.want_write = false;
  }
  return true;
}

void KvTcpServer::CloseConn(int fd) {
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  net::CloseFd(fd);
  conns_.erase(fd);
}

void KvTcpServer::EventLoop() {
  epoll_event events[64];
  for (;;) {
    const int n = epoll_wait(epoll_fd_, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fds_[0]) return;  // Stop()
      if (fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // already closed this round
      Conn& conn = it->second;
      bool alive = true;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        // Drain whatever the peer managed to send before the hangup —
        // replies cannot be delivered, so just tear down.
        alive = false;
      }
      if (alive && (events[i].events & EPOLLOUT)) {
        alive = FlushWrites(fd, conn);
      }
      if (alive && (events[i].events & EPOLLIN)) {
        alive = ServeReadable(fd, conn);
      }
      if (!alive) CloseConn(fd);
    }
  }
}

void KvTcpServer::Stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    if (loop_thread_.joinable()) loop_thread_.join();
    return;
  }
  if (wake_fds_[1] >= 0) {
    const uint8_t byte = 1;
    ssize_t rc;
    do {
      rc = write(wake_fds_[1], &byte, 1);
    } while (rc < 0 && errno == EINTR);
  }
  if (loop_thread_.joinable()) loop_thread_.join();
  for (auto& [fd, conn] : conns_) net::CloseFd(fd);
  conns_.clear();
  if (listen_fd_ >= 0) {
    net::CloseFd(listen_fd_);
    listen_fd_ = -1;
  }
  for (int& fd : wake_fds_) {
    if (fd >= 0) {
      net::CloseFd(fd);
      fd = -1;
    }
  }
  if (epoll_fd_ >= 0) {
    net::CloseFd(epoll_fd_);
    epoll_fd_ = -1;
  }
}

}  // namespace benu
