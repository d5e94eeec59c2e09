#include "server/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <thread>

namespace htqo {

namespace {

double ParseDoubleField(const Frame& frame, std::string_view key) {
  auto it = frame.fields.find(key);
  if (it == frame.fields.end()) return 0;
  return std::strtod(it->second.c_str(), nullptr);
}

}  // namespace

Client::Client(ClientOptions options)
    : options_(std::move(options)), rng_(options_.backoff_jitter_seed) {}

Client::~Client() { Close(); }

Status Client::Connect() {
  if (fd_ >= 0) return Status::Internal("already connected");
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket failed: ") +
                            std::strerror(errno));
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("invalid host '" + options_.host + "'");
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    ::close(fd);
    return Status::Internal(std::string("connect failed: ") +
                            std::strerror(errno));
  }
  fd_ = fd;
  carry_.clear();
  Frame hello;
  hello.type = FrameType::kHello;
  hello.fields["tenant"] = options_.tenant;
  Frame reply;
  Status s = RoundTrip(hello, &reply);
  if (!s.ok()) {
    Close();
    return s;
  }
  if (reply.type != FrameType::kOk) {
    Status err = Status::Internal("HELLO rejected: " + reply.payload);
    Close();
    return err;
  }
  return Status::Ok();
}

Status Client::RoundTrip(const Frame& frame, Frame* reply) {
  if (fd_ < 0) return Status::Internal("not connected");
  Status s = WriteFrame(fd_, frame);
  if (!s.ok()) return s;
  s = ReadFrame(fd_, &carry_, reply, options_.response_timeout_ms);
  if (s.code() == StatusCode::kNotFound) {
    return Status::Internal("server closed the connection");
  }
  return s;
}

Result<QueryReply> Client::Query(const std::string& sql,
                                 uint64_t deadline_ms) {
  using Clock = std::chrono::steady_clock;
  const auto deadline =
      deadline_ms > 0 ? Clock::now() + std::chrono::milliseconds(deadline_ms)
                      : Clock::time_point::max();
  QueryReply out;
  // Client half of the stitched trace: one tracer for the whole retry
  // loop, a root span covering it, and one child span per attempt whose
  // wire id rides the QUERY frame as parent_span. Exported (best effort)
  // after the final attempt; the server's half shares the hex prefix.
  std::optional<Tracer> tracer;
  uint64_t root_span = 0;
  if (!options_.trace_dir.empty()) {
    tracer.emplace();
    tracer->SetTraceId(TraceId::Random());
    if (options_.trace_export_pid != 0) {
      tracer->SetExportPid(options_.trace_export_pid);
    }
    root_span = tracer->Begin("client.query", 0);
    tracer->Attr(root_span, "tenant", options_.tenant);
    out.trace_id = tracer->trace_id().ToHex();
  }
  auto export_trace = [&] {
    if (!tracer.has_value()) return;
    tracer->End(root_span);
    const std::string path = options_.trace_dir + "/trace_" +
                             tracer->trace_id().ToHex() + "_" +
                             std::to_string(tracer->export_pid()) + ".json";
    (void)tracer->WriteChromeTrace(path);  // exporter failure is not ours
  };
  for (int attempt = 0;; ++attempt) {
    Frame query;
    query.type = FrameType::kQuery;
    query.payload = sql;
    uint64_t attempt_span = 0;
    if (tracer.has_value()) {
      attempt_span = tracer->Begin("client.attempt", root_span);
      tracer->Attr(attempt_span, "attempt", std::to_string(attempt));
      query.fields["trace_id"] = tracer->trace_id().ToHex();
      query.fields["parent_span"] = tracer->WireSpanId(attempt_span);
    }
    if (deadline_ms > 0) {
      // Forward what's left, not the original: queue time already spent in
      // earlier shed/backoff rounds must count against this query.
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                      deadline - Clock::now())
                      .count();
      if (left <= 0) {
        export_trace();
        return Status::DeadlineExceeded("query deadline passed");
      }
      query.fields["deadline_ms"] = std::to_string(left);
    }
    Frame reply;
    Status s = RoundTrip(query, &reply);
    if (tracer.has_value()) tracer->End(attempt_span);
    if (!s.ok()) {
      export_trace();
      return s;
    }
    if (reply.type == FrameType::kOk) {
      out.result_text = std::move(reply.payload);
      out.rows = reply.GetUint("rows");
      out.queued_us = reply.GetUint("queued_us");
      out.plan_ms = ParseDoubleField(reply, "plan_ms");
      out.exec_ms = ParseDoubleField(reply, "exec_ms");
      out.degradations = static_cast<int>(reply.GetUint("degraded"));
      out.admission_level =
          static_cast<int>(reply.GetUint("admission_level"));
      out.replans = static_cast<int>(reply.GetUint("replans"));
      out.record_id = reply.GetUint("record");
      out.sheds_retried = attempt;
      if (tracer.has_value()) {
        tracer->Attr(root_span, "rows", std::to_string(out.rows));
        tracer->Attr(root_span, "record", std::to_string(out.record_id));
      }
      export_trace();
      return out;
    }
    if (reply.type != FrameType::kErr) {
      export_trace();
      return Status::Internal(std::string("unexpected reply frame ") +
                              FrameTypeName(reply.type));
    }
    StatusCode code = StatusCodeFromWireName(reply.GetString("code"));
    if (code != StatusCode::kResourceExhausted ||
        attempt >= options_.max_retries) {
      // Not a shed (or out of retries): surface the server's error as-is.
      export_trace();
      std::string message = std::move(reply.payload);
      switch (code) {
        case StatusCode::kInvalidArgument:
          return Status::InvalidArgument(std::move(message));
        case StatusCode::kNotFound:
          return Status::NotFound(std::move(message));
        case StatusCode::kResourceExhausted:
          return Status::ResourceExhausted(std::move(message));
        case StatusCode::kDeadlineExceeded:
          return Status::DeadlineExceeded(std::move(message));
        default:
          return Status::Internal(std::move(message));
      }
    }
    // Shed: back off for the server's hint plus decorrelated jitter in
    // [0, hint), capped, then retry.
    uint64_t hint = reply.GetUint("retry_after_ms", 50);
    if (hint == 0) hint = 50;
    uint64_t sleep_ms = hint + rng_.Uniform(hint);
    if (sleep_ms > options_.max_backoff_ms) sleep_ms = options_.max_backoff_ms;
    if (deadline != Clock::time_point::max() &&
        Clock::now() + std::chrono::milliseconds(sleep_ms) >= deadline) {
      export_trace();
      return Status::DeadlineExceeded(
          "query deadline would pass during retry backoff");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    out.backoff_ms += sleep_ms;
  }
}

Result<std::string> Client::Debug(const std::string& what, uint64_t id,
                                  uint64_t n) {
  Frame req;
  req.type = FrameType::kDebug;
  req.fields["what"] = what;
  if (id > 0) req.fields["id"] = std::to_string(id);
  if (n > 0) req.fields["n"] = std::to_string(n);
  Frame reply;
  Status s = RoundTrip(req, &reply);
  if (!s.ok()) return s;
  if (reply.type != FrameType::kOk) {
    return Status::InvalidArgument("DEBUG rejected: " + reply.payload);
  }
  return std::move(reply.payload);
}

Result<std::string> Client::Metrics() {
  Frame req;
  req.type = FrameType::kMetrics;
  Frame reply;
  Status s = RoundTrip(req, &reply);
  if (!s.ok()) return s;
  if (reply.type != FrameType::kOk) {
    return Status::Internal("METRICS rejected: " + reply.payload);
  }
  return std::move(reply.payload);
}

Status Client::Ping() {
  Frame req;
  req.type = FrameType::kPing;
  Frame reply;
  Status s = RoundTrip(req, &reply);
  if (!s.ok()) return s;
  if (reply.type != FrameType::kOk) {
    return Status::Internal("PING rejected: " + reply.payload);
  }
  return Status::Ok();
}

void Client::Close() {
  if (fd_ < 0) return;
  // Half-close, then wait (up to 100 ms per poll) for the server's EOF: the
  // session has then ended, so the next accept joins its thread, freeing
  // its allocator arena, before it starts another session.
  ::shutdown(fd_, SHUT_WR);
  pollfd pfd{fd_, POLLIN, 0};
  char sink[256];
  while (::poll(&pfd, 1, 100) > 0 && ::read(fd_, sink, sizeof(sink)) > 0) {
  }
  ::close(fd_);
  fd_ = -1;
  carry_.clear();
}

}  // namespace htqo
