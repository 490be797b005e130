//===- net/Client.cpp -----------------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "net/Client.h"

#include "support/StringUtils.h"

#include <cerrno>
#include <cstring>
#include <optional>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace cuasmrl;
using namespace cuasmrl::net;

namespace {

void setSocketTimeout(int Fd, std::chrono::milliseconds T) {
  timeval Tv;
  Tv.tv_sec = static_cast<time_t>(T.count() / 1000);
  Tv.tv_usec = static_cast<suseconds_t>((T.count() % 1000) * 1000);
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
  ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Tv, sizeof(Tv));
}

/// Runs \p Try (returning an Expected) under the client's reconnect
/// policy; once the attempts run out, the error names \p What, the
/// attempt count and the last failure.
template <typename Fn>
auto retrying(const ClientConfig &C, support::Clock &Clk,
              const std::string &What, Fn &&Try) -> decltype(Try()) {
  std::optional<decltype(Try())> Last;
  unsigned Attempts = 0;
  support::retryWithBackoff(
      C.Retry, Clk, C.Seed, fnv1a64("net-client"),
      [&] {
        ++Attempts;
        Last.emplace(Try());
        return static_cast<bool>(*Last);
      },
      [](unsigned) {});
  if (*Last)
    return std::move(*Last);
  return Error(What + " failed after " + std::to_string(Attempts) +
               " attempts: " + Last->error().message());
}

} // namespace

Client::Client(ClientConfig C)
    : Config(std::move(C)),
      Clk(Config.ClockSrc ? Config.ClockSrc : &support::Clock::real()) {}

Client::~Client() { close(); }

void Client::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
  Stashed.clear();
}

Expected<bool> Client::connectOnce() {
  close();
  int NewFd;
  sockaddr_storage Addr;
  socklen_t AddrLen;
  std::memset(&Addr, 0, sizeof(Addr));
  if (!Config.UnixPath.empty()) {
    auto *Un = reinterpret_cast<sockaddr_un *>(&Addr);
    Un->sun_family = AF_UNIX;
    if (Config.UnixPath.size() >= sizeof(Un->sun_path))
      return Error("unix socket path too long");
    std::strncpy(Un->sun_path, Config.UnixPath.c_str(),
                 sizeof(Un->sun_path) - 1);
    AddrLen = sizeof(sockaddr_un);
    NewFd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  } else {
    auto *In = reinterpret_cast<sockaddr_in *>(&Addr);
    In->sin_family = AF_INET;
    In->sin_port = htons(Config.Port);
    if (::inet_pton(AF_INET, Config.Host.c_str(), &In->sin_addr) != 1)
      return Error("bad address '" + Config.Host + "'");
    AddrLen = sizeof(sockaddr_in);
    NewFd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  }
  if (NewFd < 0)
    return Error(std::string("socket: ") + std::strerror(errno));

  // Timed connect: non-blocking connect + poll(POLLOUT), then back to
  // blocking with per-operation socket timeouts.
  int Flags = ::fcntl(NewFd, F_GETFL, 0);
  ::fcntl(NewFd, F_SETFL, Flags | O_NONBLOCK);
  int Rc = ::connect(NewFd, reinterpret_cast<sockaddr *>(&Addr), AddrLen);
  if (Rc != 0 && errno != EINPROGRESS) {
    int E = errno;
    ::close(NewFd);
    return Error(std::string("connect: ") + std::strerror(E));
  }
  if (Rc != 0) {
    pollfd P{NewFd, POLLOUT, 0};
    int Ready = ::poll(&P, 1, static_cast<int>(Config.ConnectTimeout.count()));
    if (Ready <= 0) {
      ::close(NewFd);
      return Error(Ready == 0 ? "connect timed out"
                              : std::string("poll: ") + std::strerror(errno));
    }
    int SoErr = 0;
    socklen_t Len = sizeof(SoErr);
    ::getsockopt(NewFd, SOL_SOCKET, SO_ERROR, &SoErr, &Len);
    if (SoErr != 0) {
      ::close(NewFd);
      return Error(std::string("connect: ") + std::strerror(SoErr));
    }
  }
  ::fcntl(NewFd, F_SETFL, Flags);
  setSocketTimeout(NewFd, Config.IoTimeout);
  if (Config.UnixPath.empty()) {
    // Pipelined request frames are small; do not let Nagle batch them
    // behind the peer's delayed ACKs.
    int One = 1;
    ::setsockopt(NewFd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  }
  Fd = NewFd;
  return true;
}

Expected<bool> Client::connect() {
  return retrying(Config, *Clk, "connect", [&] { return connectOnce(); });
}

Expected<bool> Client::ensureConnected() {
  if (connected())
    return true;
  return connect();
}

bool Client::sendAll(const uint8_t *Data, size_t Size) {
  size_t Off = 0;
  while (Off < Size) {
    ssize_t N = ::send(Fd, Data + Off, Size - Off, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false; // Timeout or hard error: caller reconnects.
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

bool Client::recvAll(uint8_t *Data, size_t Size, std::string &ErrWhy) {
  size_t Off = 0;
  while (Off < Size) {
    ssize_t N = ::recv(Fd, Data + Off, Size - Off, 0);
    if (N == 0) {
      ErrWhy = "connection closed by server";
      return false;
    }
    if (N < 0) {
      if (errno == EINTR)
        continue;
      ErrWhy = (errno == EAGAIN || errno == EWOULDBLOCK)
                   ? "receive timed out"
                   : std::string("recv: ") + std::strerror(errno);
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

Expected<uint64_t> Client::send(const serve::OptimizeRequest &R) {
  if (Expected<bool> Ok = ensureConnected(); !Ok)
    return Ok.takeError();
  const uint64_t Id = NextId++;
  std::vector<uint8_t> Frame = encodeRequestFrame(R, Id);
  if (!sendAll(Frame.data(), Frame.size())) {
    close();
    return Error("send failed (connection lost)");
  }
  return Id;
}

Expected<std::pair<uint64_t, WireResponse>> Client::receive() {
  if (!connected())
    return Error("not connected");
  uint8_t Header[kHeaderSize];
  std::string Why;
  if (!recvAll(Header, sizeof(Header), Why)) {
    close();
    return Error(Why);
  }
  Expected<FrameHeader> H = decodeHeader(Header, sizeof(Header));
  if (!H) {
    close(); // Framing lost: the stream cannot be resynchronized.
    return H.takeError();
  }
  if (H->Type != FrameType::Response) {
    close();
    return Error("expected a response frame");
  }
  std::vector<uint8_t> Payload(H->PayloadLen);
  if (H->PayloadLen > 0 && !recvAll(Payload.data(), Payload.size(), Why)) {
    close();
    return Error(Why);
  }
  Expected<WireResponse> R =
      decodeResponsePayload(Payload.data(), Payload.size());
  if (!R)
    return R.takeError();
  return std::make_pair(H->RequestId, R.takeValue());
}

Expected<WireResponse> Client::call(const serve::OptimizeRequest &R) {
  // The send retries with reconnect: safe because the service is
  // idempotent per request key (a duplicate lands as a lookup hit or
  // single-flight attach). The receive does not retry — a response
  // may already be lost with the connection, and "wait again" could
  // double the caller's deadline.
  Expected<uint64_t> Sent =
      retrying(Config, *Clk, "request send", [&] { return send(R); });
  if (!Sent)
    return Sent.takeError();
  const uint64_t Id = *Sent;
  while (true) {
    auto It = Stashed.find(Id);
    if (It != Stashed.end()) {
      WireResponse W = std::move(It->second);
      Stashed.erase(It);
      return W;
    }
    Expected<std::pair<uint64_t, WireResponse>> Next = receive();
    if (!Next)
      return Next.takeError();
    if (Next->first == Id)
      return std::move(Next->second);
    Stashed.emplace(Next->first, std::move(Next->second));
  }
}
