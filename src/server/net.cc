#include "server/net.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "server/protocol.h"
#include "util/frame.h"
#include "util/macros.h"

namespace streamfreq {

namespace {

Status ErrnoStatus(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

Result<OwnedFd> MakeUnixSocket() {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket(AF_UNIX)");
  return OwnedFd(fd);
}

Status FillAddr(const std::string& path, sockaddr_un* addr) {
  if (path.empty() || path.size() >= sizeof(addr->sun_path)) {
    return Status::InvalidArgument("socket path empty or too long: " + path);
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return Status::OK();
}

/// send(2) until done, retrying EINTR. MSG_NOSIGNAL turns a peer hangup
/// into EPIPE instead of a process-killing SIGPIPE — both server and
/// client treat it as an ordinary IoError.
Status WriteAll(int fd, const char* data, size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write");
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return Status::OK();
}

/// read(2) until `len` bytes arrive. `*got` reports progress so callers can
/// tell EOF-at-boundary from EOF-mid-object.
Status ReadAll(int fd, char* data, size_t len, size_t* got) {
  *got = 0;
  while (*got < len) {
    const ssize_t n = ::read(fd, data + *got, len - *got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("read");
    }
    if (n == 0) return Status::OK();  // EOF; *got says how far we came
    *got += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

void OwnedFd::Reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<OwnedFd> ListenUnix(const std::string& path, int backlog) {
  sockaddr_un addr;
  STREAMFREQ_RETURN_NOT_OK(FillAddr(path, &addr));
  STREAMFREQ_ASSIGN_OR_RETURN(OwnedFd fd, MakeUnixSocket());
  // A socket file left by a dead server would make bind fail forever;
  // unlink is safe because a live listener would have been found by the
  // connect-based health checks callers do first.
  std::remove(path.c_str());
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return ErrnoStatus("bind(" + path + ")");
  }
  if (::listen(fd.get(), backlog) != 0) {
    return ErrnoStatus("listen(" + path + ")");
  }
  return fd;
}

Result<OwnedFd> AcceptConn(const OwnedFd& listener) {
  for (;;) {
    const int fd = ::accept(listener.get(), nullptr, nullptr);
    if (fd >= 0) return OwnedFd(fd);
    if (errno == EINTR) continue;
    return ErrnoStatus("accept");
  }
}

Result<OwnedFd> ConnectUnix(const std::string& path) {
  sockaddr_un addr;
  STREAMFREQ_RETURN_NOT_OK(FillAddr(path, &addr));
  STREAMFREQ_ASSIGN_OR_RETURN(OwnedFd fd, MakeUnixSocket());
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return ErrnoStatus("connect(" + path + ")");
  }
  return fd;
}

Status SendFrame(int fd, std::string_view payload) {
  if (payload.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument("frame payload exceeds bound");
  }
  const std::string frame = EncodeFrame(payload);
  return WriteAll(fd, frame.data(), frame.size());
}

Result<std::string> RecvFrame(int fd) {
  char header_bytes[frame::kHeaderSize];
  size_t got = 0;
  STREAMFREQ_RETURN_NOT_OK(
      ReadAll(fd, header_bytes, sizeof(header_bytes), &got));
  if (got == 0) return Status::NotFound("connection closed");
  if (got < sizeof(header_bytes)) {
    return Status::Corruption("connection closed inside a frame header");
  }
  frame::Header header;
  STREAMFREQ_RETURN_NOT_OK(frame::ParseHeader(
      std::string_view(header_bytes, sizeof(header_bytes)), kFrameMagic,
      kMaxPayloadBytes, &header));
  std::string payload(static_cast<size_t>(header.payload_len), '\0');
  STREAMFREQ_RETURN_NOT_OK(ReadAll(fd, payload.data(), payload.size(), &got));
  if (got < payload.size()) {
    return Status::Corruption("connection closed inside a frame payload");
  }
  STREAMFREQ_RETURN_NOT_OK(frame::VerifyPayload(header, payload));
  return payload;
}

}  // namespace streamfreq
