#include "rt/socket_util.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace legion::rt {

ListenerSocket CreateLoopbackListener(std::uint16_t port, int backlog) {
  ListenerSocket out;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return out;
  const int one = 1;
  // Without this, rebinding the port of a just-died listener fails with
  // EADDRINUSE for the whole TIME_WAIT period — fatal to fast recovery.
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, backlog > 0 ? backlog : SOMAXCONN) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    return out;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    return out;
  }
  out.fd = fd;
  out.port = ntohs(addr.sin_port);
  return out;
}

namespace {
bool FillSunPath(const std::string& path, sockaddr_un& addr) {
  if (path.size() >= sizeof addr.sun_path) {
    errno = ENAMETOOLONG;
    return false;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return true;
}
}  // namespace

int CreateUnixListener(const std::string& path, int backlog) {
  sockaddr_un addr{};
  if (!FillSunPath(path, addr)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  // A stale socket file from a previous (killed) incarnation makes bind()
  // fail with EADDRINUSE even though nothing listens — the UDS analogue of
  // TIME_WAIT on a TCP port.
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, backlog > 0 ? backlog : SOMAXCONN) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    return -1;
  }
  return fd;
}

int DialUnix(const std::string& path) {
  sockaddr_un addr{};
  if (!FillSunPath(path, addr)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (ConnectAll(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    return -1;
  }
  return fd;
}

int ConnectAll(int fd, const sockaddr* addr, socklen_t len) {
  if (::connect(fd, addr, len) == 0) return 0;
  if (errno != EINTR) return -1;
  pollfd p{fd, POLLOUT, 0};
  while (::poll(&p, 1, -1) < 0) {
    if (errno != EINTR) return -1;
  }
  int err = 0;
  socklen_t err_len = sizeof err;
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0) return -1;
  errno = err;
  return err == 0 ? 0 : -1;
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// Gathered write of the whole frame in one syscall on the fast path,
// advancing the iovec on partial writes. MSG_NOSIGNAL: a pooled socket whose
// peer endpoint closed must fail with EPIPE (and reconnect), not kill the
// process with SIGPIPE. A full socket buffer on a nonblocking fd parks in
// poll(POLLOUT) instead of spinning.
bool WritevAll(int fd, iovec* iov, int iovcnt, obs::Counter& retries) {
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
  while (msg.msg_iovlen > 0) {
    const ssize_t written = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EINTR) {
        retries.inc();
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd pfd{fd, POLLOUT, 0};
        if (::poll(&pfd, 1, -1) < 0 && errno != EINTR) return false;
        continue;
      }
      return false;
    }
    std::size_t left = static_cast<std::size_t>(written);
    while (msg.msg_iovlen > 0 && left >= msg.msg_iov[0].iov_len) {
      left -= msg.msg_iov[0].iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0 && left > 0) {
      msg.msg_iov[0].iov_base =
          static_cast<char*>(msg.msg_iov[0].iov_base) + left;
      msg.msg_iov[0].iov_len -= left;
    }
  }
  return true;
}

}  // namespace legion::rt
