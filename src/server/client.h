// Blocking client for the query server's frame protocol.
//
// The client is the reference implementation of the retry contract
// (README "Running the server"): a kResourceExhausted ERR is a *shed* —
// the server is overloaded, but healthy — and carries a retry_after_ms
// hint. Query() honors it: it sleeps retry_after_ms plus decorrelated
// jitter (so a fleet of shed clients does not re-arrive as a thundering
// herd) and retries, up to max_retries times or the caller's deadline.
// A kDeadlineExceeded ERR is never retried: by definition there is no
// time left to retry in.
//
// One Client is one connection and is not thread-safe; a load generator
// wants one Client per worker thread.

#ifndef HTQO_SERVER_CLIENT_H_
#define HTQO_SERVER_CLIENT_H_

#include <cstdint>
#include <string>

#include "obs/trace.h"
#include "server/protocol.h"
#include "util/rng.h"
#include "util/status.h"

namespace htqo {

struct ClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string tenant = "default";
  // Per-attempt response timeout; <= 0 waits forever.
  int response_timeout_ms = 60000;
  // Retry policy for shed (resource-exhausted) responses.
  int max_retries = 5;
  uint64_t backoff_jitter_seed = 42;
  // Cap on any single backoff sleep, whatever the server hints.
  uint64_t max_backoff_ms = 2000;
  // Client-side tracing (DESIGN.md §6i). Non-empty: every Query() runs
  // under a client Tracer with a fresh 128-bit trace id, sends
  // trace_id/parent_span on the QUERY frame so the server's spans stitch
  // under the client's, and exports trace_<hex>_<pid>.json here — the
  // other half of the server's file of the same hex prefix.
  std::string trace_dir;
  // Test hook: overrides the pid baked into exported span ids, so a test
  // running client and server in one process still yields a stitchable
  // two-"process" trace pair. 0 = the real pid.
  uint64_t trace_export_pid = 0;
};

// One query's worth of response detail.
struct QueryReply {
  std::string result_text;       // rendered result table (possibly truncated)
  uint64_t rows = 0;
  uint64_t queued_us = 0;        // time spent in the admission queue
  double plan_ms = 0;
  double exec_ms = 0;
  int degradations = 0;          // optimizer ladder steps taken server-side
  int admission_level = 0;       // admission degrade level (0 = full budgets)
  int replans = 0;               // mid-query replans taken server-side
  int sheds_retried = 0;         // sheds absorbed by the retry loop
  uint64_t backoff_ms = 0;       // total time slept in backoff
  uint64_t record_id = 0;        // server flight-recorder id (0 = none)
  std::string trace_id;          // 32-hex trace id when tracing was on
};

class Client {
 public:
  explicit Client(ClientOptions options);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Connects and sends HELLO tenant=<tenant>. kInternal on socket errors,
  // the server's error on a rejected HELLO.
  Status Connect();

  // Runs one query, absorbing sheds per the retry policy. `deadline_ms` is
  // forwarded to the server (0 = no deadline) and also bounds the retry
  // loop client-side.
  Result<QueryReply> Query(const std::string& sql, uint64_t deadline_ms = 0);

  // Fetches the Prometheus exposition over the query connection (METRICS
  // frame — no separate HTTP listener needed).
  Result<std::string> Metrics();

  // Live introspection over the query connection (DEBUG frame): JSON for
  // `what` in sessions|queues|cache|slow|record|build. `id` selects a
  // flight record (what=record), `n` bounds the slow log (0 = default).
  Result<std::string> Debug(const std::string& what, uint64_t id = 0,
                            uint64_t n = 0);

  Status Ping();

  // Half-closes and waits briefly for the server to end the session, then
  // closes (the destructor too), so a reconnect never overlaps it.
  void Close();

  bool connected() const { return fd_ >= 0; }

 private:
  // Sends `frame`, reads one response frame into *reply.
  Status RoundTrip(const Frame& frame, Frame* reply);

  ClientOptions options_;
  int fd_ = -1;
  std::string carry_;
  Rng rng_;
};

}  // namespace htqo

#endif  // HTQO_SERVER_CLIENT_H_
