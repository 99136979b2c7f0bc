// Socket helpers shared by the socket-backed runtimes.
//
// EpollRuntime (reactor) and ProcessRuntime (one child process per object,
// Unix-domain sockets) create listeners, dial peers, and move whole frames;
// centralizing the syscall loops keeps the EINTR/EAGAIN/partial-transfer
// handling — and the listener socket options (SO_REUSEADDR, configurable
// backlog, close-on-exec) — identical in both.
//
// Every socket created here is close-on-exec. ProcessRuntime fork/execs a
// worker per object; without CLOEXEC the child would inherit the parent's
// pooled client sockets and every listener (keeping dead ports alive through
// TIME_WAIT and leaking peer data into an address-space-disjoint object).
#pragma once

#include <sys/socket.h>
#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace legion::rt {

// A freshly bound loopback listener. fd < 0 means creation failed (errno
// preserved from the failing syscall).
struct ListenerSocket {
  int fd = -1;
  std::uint16_t port = 0;
};

// Binds a TCP listener on 127.0.0.1:`port` (0 = kernel-assigned ephemeral)
// with SO_REUSEADDR set and the given backlog (<= 0 = SOMAXCONN).
//
// SO_REUSEADDR matters for recovery: a host that crashes and is revived on
// the same port must not fail bind() with EADDRINUSE while the old
// incarnation's connections drain through TIME_WAIT — exactly the E15
// stop/rebind path.
[[nodiscard]] ListenerSocket CreateLoopbackListener(std::uint16_t port,
                                                    int backlog);

// Binds a SOCK_STREAM Unix-domain listener at `path` (unlinking any stale
// socket file first). Returns the listening fd, or -1 with errno preserved.
// `path` must fit sun_path (~107 bytes) — keep socket directories short.
[[nodiscard]] int CreateUnixListener(const std::string& path, int backlog);

// Connects a SOCK_STREAM Unix-domain client socket to `path`. Returns the
// connected fd, or -1 with errno preserved (ENOENT/ECONNREFUSED = nothing
// listens there — the UDS flavor of a stale binding).
[[nodiscard]] int DialUnix(const std::string& path);

// connect(2) on a blocking socket, to completion: a signal interrupting it
// leaves the handshake running, so EINTR waits for that outcome instead of
// failing. Returns 0, or -1 with errno set to the connect error.
[[nodiscard]] int ConnectAll(int fd, const sockaddr* addr, socklen_t len);

// accept(2) with close-on-exec set atomically (accept4). Returns the
// accepted fd or -1 with errno preserved.
[[nodiscard]] int AcceptConn(int listen_fd);

// Sets O_NONBLOCK; returns false (errno preserved) on failure.
bool SetNonBlocking(int fd);

// Reads exactly `n` bytes, retrying EINTR (counted in `retries`). False on
// EOF or error. For blocking sockets only.
bool ReadAll(int fd, void* data, std::size_t n, obs::Counter& retries);

// Writes the whole iovec with gathered sendmsg(MSG_NOSIGNAL), advancing on
// partial writes, retrying EINTR (counted), and parking in poll(POLLOUT) on
// EAGAIN/EWOULDBLOCK so nonblocking sockets are handled too. False on error.
bool WritevAll(int fd, iovec* iov, int iovcnt, obs::Counter& retries);

}  // namespace legion::rt
