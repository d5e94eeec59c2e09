// Query server end-to-end tests: protocol round-trips over real sockets,
// concurrent multi-tenant sessions returning byte-identical results, the
// shed/retry-after contract, graceful drain with straggler cancellation,
// server-side fault sites that must never take the whole server down, and
// the plan-cache staleness race against a StatisticsRegistry writer (this
// file runs in the TSan suite — fixture names carry "Server").

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/hybrid_optimizer.h"
#include "cache/decomp_cache.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "stats/estimator.h"
#include "stats/statistics.h"
#include "util/fault_injector.h"
#include "util/thread_pool.h"
#include "workload/drift.h"
#include "workload/query_gen.h"
#include "workload/synthetic.h"

namespace htqo {
namespace {

// ---------------------------------------------------------------------------
// Protocol layer (no server needed: socketpair stands in for TCP).

TEST(ServerProtocolTest, HeaderRoundTripsThroughSerialize) {
  Frame f;
  f.type = FrameType::kErr;
  f.fields["code"] = "resource-exhausted";
  f.fields["retry_after_ms"] = "120";
  f.payload = "queue full for tenant t1";
  std::string wire = f.Serialize();

  std::size_t newline = wire.find('\n');
  ASSERT_NE(newline, std::string::npos);
  Frame parsed;
  std::size_t payload_len = 0;
  ASSERT_TRUE(ParseFrameHeader(std::string_view(wire).substr(0, newline),
                               &parsed, &payload_len)
                  .ok());
  EXPECT_EQ(parsed.type, FrameType::kErr);
  EXPECT_EQ(parsed.GetString("code"), "resource-exhausted");
  EXPECT_EQ(parsed.GetUint("retry_after_ms"), 120u);
  EXPECT_EQ(payload_len, f.payload.size());
  EXPECT_EQ(wire.substr(newline + 1), f.payload);
}

TEST(ServerProtocolTest, MalformedHeadersAreInvalidArgument) {
  Frame frame;
  std::size_t len = 0;
  EXPECT_EQ(ParseFrameHeader("BOGUS", &frame, &len).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseFrameHeader("QUERY noequalsign", &frame, &len).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseFrameHeader("QUERY =value", &frame, &len).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseFrameHeader("QUERY len=abc", &frame, &len).code(),
            StatusCode::kInvalidArgument);
  // Payload cap: a len that would balloon server memory is refused at parse.
  EXPECT_EQ(
      ParseFrameHeader("QUERY len=99999999999", &frame, &len).code(),
      StatusCode::kInvalidArgument);
}

TEST(ServerProtocolTest, StatusCodeWireNamesRoundTrip) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kResourceExhausted, StatusCode::kDeadlineExceeded,
        StatusCode::kInternal}) {
    EXPECT_EQ(StatusCodeFromWireName(StatusCodeWireName(code)), code);
  }
  EXPECT_EQ(StatusCodeFromWireName("gibberish"), StatusCode::kInternal);
}

TEST(ServerProtocolTest, ReadFrameSurvivesTimeoutMidFrame) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Frame sent = MakeOkFrame("0123456789");
  std::string wire = sent.Serialize();

  // Deliver the header and half the payload, then stall. ReadFrame must
  // time out WITHOUT consuming the partial frame, and complete it once the
  // rest arrives — the regression this guards is a poll-slice timeout
  // desynchronizing the stream mid-payload.
  ASSERT_EQ(write(fds[0], wire.data(), wire.size() - 5),
            static_cast<ssize_t>(wire.size() - 5));
  std::string carry;
  Frame got;
  EXPECT_EQ(ReadFrame(fds[1], &carry, &got, 50).code(),
            StatusCode::kDeadlineExceeded);
  ASSERT_EQ(write(fds[0], wire.data() + wire.size() - 5, 5), 5);
  ASSERT_TRUE(ReadFrame(fds[1], &carry, &got, 1000).ok());
  EXPECT_EQ(got.type, FrameType::kOk);
  EXPECT_EQ(got.payload, "0123456789");
  EXPECT_TRUE(carry.empty());

  // Two frames delivered in one burst: the carry buffer must hand them out
  // one at a time with no residue.
  Frame ping;
  ping.type = FrameType::kPing;
  std::string burst = ping.Serialize() + sent.Serialize();
  ASSERT_EQ(write(fds[0], burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));
  ASSERT_TRUE(ReadFrame(fds[1], &carry, &got, 1000).ok());
  EXPECT_EQ(got.type, FrameType::kPing);
  ASSERT_TRUE(ReadFrame(fds[1], &carry, &got, 1000).ok());
  EXPECT_EQ(got.payload, "0123456789");

  // Clean EOF with an empty carry is kNotFound; mid-frame EOF is malformed.
  ASSERT_EQ(write(fds[0], "OK len=5\nab", 11), 11);
  close(fds[0]);
  EXPECT_EQ(ReadFrame(fds[1], &carry, &got, 1000).code(),
            StatusCode::kInvalidArgument);
  close(fds[1]);
}

// Deterministic fuzz over the header parser: random byte soup, mutated
// valid headers, truncations, embedded NULs and non-ASCII verbs. The
// contract is narrow — every input returns kOk or kInvalidArgument (never a
// crash, never a payload_len past the cap) — so a blind generator covers it
// well.
TEST(ServerProtocolTest, ParseFrameHeaderFuzzNeverCrashes) {
  uint64_t state = 0x9e3779b97f4a7c15ull;  // fixed seed: reproducible
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>(state >> 33);
  };
  const std::string valid = "QUERY deadline_ms=250 len=11";
  Frame frame;
  std::size_t len = 0;
  for (int iter = 0; iter < 5000; ++iter) {
    std::string line;
    switch (next() % 4) {
      case 0: {  // pure byte soup, full 0-255 range
        std::size_t n = next() % 64;
        for (std::size_t i = 0; i < n; ++i) {
          line.push_back(static_cast<char>(next() % 256));
        }
        break;
      }
      case 1: {  // truncated valid header
        line = valid.substr(0, next() % (valid.size() + 1));
        break;
      }
      case 2: {  // valid header with one byte flipped
        line = valid;
        line[next() % line.size()] =
            static_cast<char>(next() % 256);
        break;
      }
      default: {  // valid header with garbage appended (incl. non-ASCII)
        line = valid;
        std::size_t n = next() % 16;
        for (std::size_t i = 0; i < n; ++i) {
          line.push_back(static_cast<char>(next() % 256));
        }
        break;
      }
    }
    Status s = ParseFrameHeader(line, &frame, &len);
    ASSERT_TRUE(s.ok() || s.code() == StatusCode::kInvalidArgument)
        << "input bytes: " << line.size() << " status: " << s.message();
    if (s.ok()) ASSERT_LE(len, kMaxPayloadBytes);
  }
  // The header-size cap itself.
  std::string huge(kMaxHeaderBytes + 1, 'A');
  EXPECT_EQ(ParseFrameHeader(huge, &frame, &len).code(),
            StatusCode::kInvalidArgument);
}

// Malformed streams over a real socket: non-ASCII verbs, oversized length
// prefixes, never-terminated headers, and payloads trickling in one byte
// per read must end in a typed error or a complete frame — never a hang,
// never a desynchronized stream.
TEST(ServerProtocolTest, MalformedStreamsFailCleanlyOverSocket) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string carry;
  Frame got;

  // Non-ASCII verb: rejected, line consumed, stream resyncs on the next
  // well-formed frame.
  std::string bad_verb = "\xff\xfe\x01QUERY len=3\nabc";
  ASSERT_EQ(write(fds[0], bad_verb.data(), bad_verb.size()),
            static_cast<ssize_t>(bad_verb.size()));
  EXPECT_EQ(ReadFrame(fds[1], &carry, &got, 1000).code(),
            StatusCode::kInvalidArgument);
  // The carry still holds "abc" (3 junk bytes), which the next header line
  // absorbs as a bad verb too; drain it, then verify resync.
  std::string resync = "\nPING\n";
  ASSERT_EQ(write(fds[0], resync.data(), resync.size()),
            static_cast<ssize_t>(resync.size()));
  EXPECT_EQ(ReadFrame(fds[1], &carry, &got, 1000).code(),
            StatusCode::kInvalidArgument);  // "abc" line
  ASSERT_TRUE(ReadFrame(fds[1], &carry, &got, 1000).ok());
  EXPECT_EQ(got.type, FrameType::kPing);
  EXPECT_TRUE(carry.empty());

  // Oversized length prefix: refused at parse, before any payload read.
  std::string oversized =
      "QUERY len=" + std::to_string(kMaxPayloadBytes + 1) + "\n";
  ASSERT_EQ(write(fds[0], oversized.data(), oversized.size()),
            static_cast<ssize_t>(oversized.size()));
  EXPECT_EQ(ReadFrame(fds[1], &carry, &got, 1000).code(),
            StatusCode::kInvalidArgument);
  carry.clear();  // a real session closes the connection here

  // Header that never terminates: bounded by kMaxHeaderBytes, not by the
  // peer's patience.
  std::string runaway(kMaxHeaderBytes + 64, 'Q');
  ASSERT_EQ(write(fds[0], runaway.data(), runaway.size()),
            static_cast<ssize_t>(runaway.size()));
  EXPECT_EQ(ReadFrame(fds[1], &carry, &got, 1000).code(),
            StatusCode::kInvalidArgument);
  carry.clear();

  // Payload split across many tiny reads: a writer thread trickles one
  // byte at a time; ReadFrame must reassemble the exact frame.
  Frame query;
  query.type = FrameType::kQuery;
  query.fields["deadline_ms"] = "250";
  query.payload = "SELECT 1";
  std::string wire = query.Serialize();
  std::thread trickler([&] {
    for (char c : wire) {
      ASSERT_EQ(write(fds[0], &c, 1), 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  ASSERT_TRUE(ReadFrame(fds[1], &carry, &got, 10000).ok());
  trickler.join();
  EXPECT_EQ(got.type, FrameType::kQuery);
  EXPECT_EQ(got.GetUint("deadline_ms"), 250u);
  EXPECT_EQ(got.payload, "SELECT 1");
  EXPECT_TRUE(carry.empty());

  close(fds[0]);
  close(fds[1]);
}

// ---------------------------------------------------------------------------
// End-to-end server tests over loopback TCP.

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PopulateSyntheticCatalog(SyntheticConfig{3000, 60, 6, 99}, &catalog_);
    stats_.AnalyzeAll(catalog_);
  }

  ServerOptions BaseOptions() {
    ServerOptions options;
    options.run_template.mode = OptimizerMode::kQhdHybrid;
    options.run_template.use_plan_cache = true;
    options.default_deadline_seconds = 30;
    return options;
  }

  ClientOptions ClientFor(const QueryServer& server,
                          const std::string& tenant) {
    ClientOptions copts;
    copts.port = server.port();
    copts.tenant = tenant;
    return copts;
  }

  // Reference answer straight from the library, with the same options the
  // server uses, rendered exactly as the server renders it.
  std::string Expected(const ServerOptions& options,
                       const std::string& sql) {
    HybridOptimizer optimizer(&catalog_, &stats_);
    auto run = optimizer.Run(sql, options.run_template);
    EXPECT_TRUE(run.ok()) << run.status().message();
    return run.ok() ? run->output.ToString(options.max_result_rows) : "";
  }

  Catalog catalog_;
  StatisticsRegistry stats_;
};

// Order-insensitive comparison of rendered result tables: a different (but
// equivalent) plan may permute rows; it must never change the multiset.
std::string SortedLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

TEST_F(ServerTest, ConcurrentTenantsGetByteIdenticalResults) {
  ServerOptions options = BaseOptions();
  options.admission.max_total_concurrent = 4;
  QueryServer server(&catalog_, &stats_, options);
  ASSERT_TRUE(server.Start().ok());

  const std::string sql = ChainQuerySql(4);
  const std::string expected = Expected(options, sql);
  ASSERT_FALSE(expected.empty());

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([&, i] {
      Client client(ClientFor(server, "t" + std::to_string(i % 4)));
      if (!client.Connect().ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int q = 0; q < 4; ++q) {
        auto reply = client.Query(sql, /*deadline_ms=*/20000);
        if (!reply.ok() || reply->result_text != expected) {
          failures.fetch_add(1);
        }
      }
      client.Close();
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0) << "a tenant saw a wrong or failed result";
  ASSERT_TRUE(server.Drain(5.0).ok());
}

TEST_F(ServerTest, ShardedServerPreGrowsPoolAndServesCorrectResults) {
  // Regression: the server used to pre-grow the shared pool to num_threads
  // only. A sharded run then requested num_threads x num_shards lanes,
  // forcing ThreadPool::Shared to tear down and rebuild the pool *during*
  // the first in-flight query — a rebuild the pool contract forbids — and
  // concurrent sharded queries could stall behind a pool sized for one
  // shard. Start() must pre-grow to the full (capped) lane product before
  // any session exists.
  ServerOptions options = BaseOptions();
  options.run_template.mode = OptimizerMode::kYannakakis;
  options.run_template.num_threads = 4;
  options.run_template.num_shards = 4;
  options.run_template.shard_replicate_threshold = 8;
  options.admission.max_total_concurrent = 4;
  QueryServer server(&catalog_, &stats_, options);
  ASSERT_TRUE(server.Start().ok());

  // The pool already holds the full lane product's workers. Probing with a
  // tiny request can never grow the pool, so the observed size is whatever
  // Start() left behind — it must cover num_threads x num_shards lanes.
  ThreadPool* pool = ThreadPool::Shared(2);
  ASSERT_NE(pool, nullptr);
  EXPECT_GE(pool->workers() + 1,
            options.run_template.num_threads *
                options.run_template.num_shards);

  const std::string sql = LineQuerySql(5);
  const std::string expected = Expected(options, sql);
  ASSERT_FALSE(expected.empty());

  // Concurrent sharded queries: all must complete well inside the deadline
  // (an oversubscription stall would blow it) with the exact answer.
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&, i] {
      Client client(ClientFor(server, "t" + std::to_string(i)));
      if (!client.Connect().ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int q = 0; q < 3; ++q) {
        auto reply = client.Query(sql, /*deadline_ms=*/20000);
        if (!reply.ok() || reply->result_text != expected) {
          failures.fetch_add(1);
        }
      }
      client.Close();
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0)
      << "a sharded query stalled or returned a wrong result";
  ASSERT_TRUE(server.Drain(5.0).ok());
}

TEST_F(ServerTest, ShedCarriesRetryAfterAndClientBackoffSucceeds) {
  ServerOptions options = BaseOptions();
  options.admission.max_total_concurrent = 1;
  options.admission.default_quota.max_concurrent = 1;
  options.admission.default_quota.max_queue_depth = 0;  // no queue: shed
  QueryServer server(&catalog_, &stats_, options);
  ASSERT_TRUE(server.Start().ok());

  // Occupy the only slot directly, so the client's first attempts shed.
  auto held = server.admission().Acquire(
      "hog", AdmissionController::Clock::now() + std::chrono::seconds(30));
  ASSERT_TRUE(held.ok());

  // A no-retry client surfaces the shed as-is: retryable code + hint text.
  {
    ClientOptions no_retry = ClientFor(server, "t0");
    no_retry.max_retries = 0;
    Client client(no_retry);
    ASSERT_TRUE(client.Connect().ok());
    auto reply = client.Query(ChainQuerySql(3), 10000);
    ASSERT_FALSE(reply.ok());
    EXPECT_EQ(reply.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(reply.status().message().find("admission-shed"),
              std::string::npos);
    client.Close();
  }

  // A retrying client backs off per the hint and wins once the slot frees.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    held->Release();
  });
  ClientOptions retrying = ClientFor(server, "t1");
  retrying.max_retries = 50;
  Client client(retrying);
  ASSERT_TRUE(client.Connect().ok());
  auto reply = client.Query(ChainQuerySql(3), 30000);
  releaser.join();
  ASSERT_TRUE(reply.ok()) << reply.status().message();
  EXPECT_GE(reply->sheds_retried, 1);
  EXPECT_GE(reply->backoff_ms, 1u);
  client.Close();
  ASSERT_TRUE(server.Drain(5.0).ok());
}

TEST_F(ServerTest, QueueTimeoutIsDeadlineExceededAndNotRetried) {
  ServerOptions options = BaseOptions();
  options.admission.max_total_concurrent = 1;
  options.admission.default_quota.max_concurrent = 1;
  // Make the would-expire predictor certain: with a 20 s EMA seed, any
  // queued query's estimated wait dwarfs a 200 ms deadline.
  options.admission.initial_query_seconds = 20.0;
  QueryServer server(&catalog_, &stats_, options);
  ASSERT_TRUE(server.Start().ok());

  auto held = server.admission().Acquire(
      "hog", AdmissionController::Clock::now() + std::chrono::seconds(30));
  ASSERT_TRUE(held.ok());

  Client client(ClientFor(server, "t0"));
  ASSERT_TRUE(client.Connect().ok());
  const auto t0 = std::chrono::steady_clock::now();
  auto reply = client.Query(ChainQuerySql(3), /*deadline_ms=*/200);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded);
  // Never retried, never parked until the deadline: rejected up front.
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(150));
  client.Close();
  held->Release();
  ASSERT_TRUE(server.Drain(5.0).ok());
}

TEST_F(ServerTest, DrainCancelsStragglersWithinDeadline) {
  // A heavier catalog so the straggler query reliably outlives the drain
  // deadline (roughly 200 ms even in a release build).
  Catalog heavy;
  StatisticsRegistry heavy_stats;
  PopulateSyntheticCatalog(SyntheticConfig{30000, 30, 6, 99}, &heavy);
  heavy_stats.AnalyzeAll(heavy);

  ServerOptions options = BaseOptions();
  options.run_template.use_plan_cache = false;
  QueryServer server(&heavy, &heavy_stats, options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> query_returned{false};
  Status query_status = Status::Ok();
  std::thread straggler([&] {
    Client client(ClientFor(server, "slow"));
    if (!client.Connect().ok()) return;
    auto reply = client.Query(ChainQuerySql(5), /*deadline_ms=*/60000);
    query_status = reply.ok() ? Status::Ok() : reply.status();
    query_returned.store(true);
  });

  // Give the query time to be admitted, then drain with a deadline far
  // shorter than its runtime.
  for (int spin = 0; spin < 1000 && !server.admission().snapshot().admitted;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t cancelled = 0;
  ASSERT_TRUE(server.Drain(/*deadline_seconds=*/0.05, &cancelled).ok());
  const double drain_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  straggler.join();

  EXPECT_TRUE(query_returned.load());
  // Drain must not wait for the full query: bounded by deadline + governor
  // checkpoint latency + thread joins (generous slack for sanitizers).
  EXPECT_LT(drain_seconds, 10.0);
  if (cancelled > 0) {
    // The straggler was cancelled mid-run: it must surface the governor's
    // typed cancellation, not a hang, crash, or wrong answer.
    EXPECT_FALSE(query_status.ok());
  }
  EXPECT_FALSE(server.running());
  // Post-drain connects are refused outright.
  Client late(ClientFor(server, "late"));
  EXPECT_FALSE(late.Connect().ok());
}

TEST_F(ServerTest, ServerFaultSitesNeverKillTheServer) {
  ServerOptions options = BaseOptions();
  QueryServer server(&catalog_, &stats_, options);
  ASSERT_TRUE(server.Start().ok());
  const std::string sql = ChainQuerySql(3);
  const std::string expected = Expected(options, sql);

  for (const char* site : {kFaultSiteServerAccept, kFaultSiteServerRead,
                           kFaultSiteServerWrite}) {
    {
      ScopedFaultInjection fault(FaultPlan{site, 3, 1.0, 0, 1});
      ASSERT_TRUE(fault.status().ok());
      // The injected failure lands on this connection (client and server
      // share the fault sites in-process, so either side may absorb the
      // single fire). Success and typed failure are both acceptable; a
      // crash or hang is not.
      Client victim(ClientFor(server, "victim"));
      if (victim.Connect().ok()) {
        (void)victim.Query(sql, 10000);
        victim.Close();
      }
    }
    // Fault disarmed: the server must serve a fresh connection perfectly.
    Client after(ClientFor(server, "after"));
    ASSERT_TRUE(after.Connect().ok()) << "server died after " << site;
    auto reply = after.Query(sql, 20000);
    ASSERT_TRUE(reply.ok()) << site << ": " << reply.status().message();
    EXPECT_EQ(reply->result_text, expected) << site;
    after.Close();
  }
  ASSERT_TRUE(server.Drain(5.0).ok());
}

TEST_F(ServerTest, PingMetricsAndProtocolErrorsOverTcp) {
  ServerOptions options = BaseOptions();
  QueryServer server(&catalog_, &stats_, options);
  ASSERT_TRUE(server.Start().ok());

  Client client(ClientFor(server, "t0"));
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_TRUE(client.Ping().ok());
  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("htqo_server_connections_total"),
            std::string::npos);
  EXPECT_NE(metrics->find("htqo_admission_admitted_total"),
            std::string::npos);
  client.Close();

  // Raw connections: a garbage header gets a typed ERR and a closed
  // connection, and QUIT (which Client never sends) gets BYE then EOF; the
  // server keeps serving after both.
  for (const std::string request : {"NOT A FRAME\n", "QUIT\n"}) {
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    ASSERT_EQ(write(fd, request.data(), request.size()),
              static_cast<ssize_t>(request.size()));
    std::string carry;
    Frame reply;
    ASSERT_TRUE(ReadFrame(fd, &carry, &reply, 5000).ok()) << request;
    if (request == "QUIT\n") {
      EXPECT_EQ(reply.type, FrameType::kBye);
    } else {
      EXPECT_EQ(reply.type, FrameType::kErr);
      EXPECT_EQ(StatusCodeFromWireName(reply.GetString("code")),
                StatusCode::kInvalidArgument);
    }
    EXPECT_EQ(ReadFrame(fd, &carry, &reply, 5000).code(),
              StatusCode::kNotFound)
        << request;
    close(fd);
  }
  Client again(ClientFor(server, "t1"));
  ASSERT_TRUE(again.Connect().ok());
  EXPECT_TRUE(again.Ping().ok());
  again.Close();
  ASSERT_TRUE(server.Drain(5.0).ok());
}

TEST_F(ServerTest, QueryBeforeHelloAndUnknownTenantHandling) {
  ServerOptions options = BaseOptions();
  QueryServer server(&catalog_, &stats_, options);
  ASSERT_TRUE(server.Start().ok());

  // Speak the protocol by hand: QUERY with no HELLO is invalid-argument.
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  Frame query;
  query.type = FrameType::kQuery;
  query.payload = "SELECT a FROM r1;";
  ASSERT_TRUE(WriteFrame(fd, query).ok());
  std::string carry;
  Frame reply;
  ASSERT_TRUE(ReadFrame(fd, &carry, &reply, 5000).ok());
  EXPECT_EQ(reply.type, FrameType::kErr);
  EXPECT_EQ(StatusCodeFromWireName(reply.GetString("code")),
            StatusCode::kInvalidArgument);
  close(fd);
  ASSERT_TRUE(server.Drain(5.0).ok());
}

// Satellite: the DecompCache + StatsEpochRegistry contract under a server
// workload racing StatisticsRegistry writers. A *separate* registry naming
// the same relations bumps the (global, deliberately conservative) epochs;
// cached plans for those relations must re-validate — stale entries are
// detected, and no session ever sees a wrong result.
TEST_F(ServerTest, FeedbackLoopRefreshesDriftedStatsServerSide) {
  // A server built over a *mutable* registry with enable_feedback: the
  // first post-drift query's trace is reconciled server-side, so the
  // registry learns hot's true size without any external ANALYZE. Results
  // before and after the refresh are the same multiset (only the join
  // order may change).
  Catalog catalog;
  StatisticsRegistry stats;
  DriftConfig config;
  config.drifted_hot_rows = 20000;
  PopulateDriftCatalog(config, &catalog);
  stats.AnalyzeAll(catalog);
  ApplyDrift(config, &catalog);
  ASSERT_LT(Estimator(&stats).Rows("hot"), 1000.0);  // the pre-drift lie

  ServerOptions options = BaseOptions();
  options.run_template.mode = OptimizerMode::kDpStatistics;
  options.run_template.use_plan_cache = false;
  options.enable_feedback = true;
  QueryServer server(&catalog, &stats, options);  // mutable-stats overload
  ASSERT_TRUE(server.Start().ok());

  Client client(ClientFor(server, "t0"));
  ASSERT_TRUE(client.Connect().ok());
  auto first = client.Query(DriftQuerySql(), /*deadline_ms=*/30000);
  ASSERT_TRUE(first.ok()) << first.status().message();
  auto second = client.Query(DriftQuerySql(), /*deadline_ms=*/30000);
  ASSERT_TRUE(second.ok()) << second.status().message();
  EXPECT_EQ(SortedLines(first->result_text),
            SortedLines(second->result_text))
      << "feedback refresh changed the answer";
  client.Close();
  ASSERT_TRUE(server.Drain(5.0).ok());

  EXPECT_GT(Estimator(&stats).Rows("hot"), 10000.0)
      << "server-side reconciliation never refreshed hot";
}

TEST_F(ServerTest, StatsEpochRaceDetectsStalenessNeverWrongResults) {
  ServerOptions options = BaseOptions();
  options.admission.max_total_concurrent = 4;
  QueryServer server(&catalog_, &stats_, options);
  ASSERT_TRUE(server.Start().ok());
  const std::string sql = ChainQuerySql(4);
  const std::string expected_sorted =
      SortedLines(Expected(options, sql));

  // Deterministic staleness first: prime the cache, bump r1's epoch via a
  // foreign registry, and observe the stale-detection counter move.
  {
    Client primer(ClientFor(server, "primer"));
    ASSERT_TRUE(primer.Connect().ok());
    ASSERT_TRUE(primer.Query(sql, 20000).ok());
    const uint64_t stale_before = DecompCache::Global().stats().stale;
    StatisticsRegistry foreign;
    foreign.Put("r1", MakeManualStats(10, {}));
    auto reply = primer.Query(sql, 20000);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(SortedLines(reply->result_text), expected_sorted)
        << "stale plan served a wrong result";
    EXPECT_GT(DecompCache::Global().stats().stale, stale_before)
        << "epoch bump was not detected as staleness";
    primer.Close();
  }

  // Now the race: sessions querying while a writer thread churns Put/Clear
  // on its own registry (bumping shared epochs). TSan guards the
  // synchronization; we assert result correctness.
  std::atomic<bool> stop_writer{false};
  std::thread writer([&] {
    StatisticsRegistry churn;
    int i = 0;
    while (!stop_writer.load(std::memory_order_relaxed)) {
      churn.Put("r" + std::to_string(1 + (i % 4)),
                MakeManualStats(100 + i, {}));
      if (i % 7 == 0) churn.Clear();
      ++i;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::atomic<int> wrong{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      Client client(ClientFor(server, "t" + std::to_string(c)));
      if (!client.Connect().ok()) {
        wrong.fetch_add(100);
        return;
      }
      for (int q = 0; q < 10; ++q) {
        auto reply = client.Query(sql, 20000);
        if (!reply.ok() ||
            SortedLines(reply->result_text) != expected_sorted) {
          wrong.fetch_add(1);
        }
      }
      client.Close();
    });
  }
  for (std::thread& t : clients) t.join();
  stop_writer.store(true);
  writer.join();
  EXPECT_EQ(wrong.load(), 0)
      << "a session saw a wrong or failed result during the stats race";
  ASSERT_TRUE(server.Drain(5.0).ok());
}

// ---------------------------------------------------------------------------
// Observability plane (DESIGN.md §6i): DEBUG verb, /debug HTTP endpoints,
// per-tenant labeled series + SLO gauges, and client↔server stitched traces.

// One-shot HTTP GET against the metrics listener; returns the whole
// response (status line + headers + body). The server closes after one
// response, so read-to-EOF frames it.
std::string HttpGet(uint16_t port, const std::string& path) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (write(fd, req.data(), req.size()) != static_cast<ssize_t>(req.size())) {
    close(fd);
    return "";
  }
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = read(fd, buf, sizeof(buf))) > 0) out.append(buf, n);
  close(fd);
  return out;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST_F(ServerTest, DebugVerbServesIntrospectionJson) {
  ServerOptions options = BaseOptions();
  QueryServer server(&catalog_, &stats_, options);
  ASSERT_TRUE(server.Start().ok());

  Client client(ClientFor(server, "debug-tenant"));
  ASSERT_TRUE(client.Connect().ok());
  auto reply = client.Query(ChainQuerySql(3), 20000);
  ASSERT_TRUE(reply.ok()) << reply.status().message();
  // The OK frame echoes the flight-recorder id of this very query.
  ASSERT_GT(reply->record_id, 0u);

  auto sessions = client.Debug("sessions");
  ASSERT_TRUE(sessions.ok()) << sessions.status().message();
  EXPECT_NE(sessions->find("\"tenant\":\"debug-tenant\""), std::string::npos);
  EXPECT_NE(sessions->find("\"queries\":1"), std::string::npos);

  auto queues = client.Debug("queues");
  ASSERT_TRUE(queues.ok());
  EXPECT_NE(queues->find("\"admitted\":"), std::string::npos);
  EXPECT_NE(queues->find("\"slo\":"), std::string::npos);
  EXPECT_NE(queues->find("\"tenant\":\"debug-tenant\""), std::string::npos);

  auto cache = client.Debug("cache");
  ASSERT_TRUE(cache.ok());
  EXPECT_NE(cache->find("\"entries\":"), std::string::npos);
  EXPECT_NE(cache->find("\"hits\":"), std::string::npos);

  auto slow = client.Debug("slow");
  ASSERT_TRUE(slow.ok());
  EXPECT_NE(slow->find("\"records\":["), std::string::npos);
  EXPECT_NE(slow->find("\"tenant\":\"debug-tenant\""), std::string::npos);

  auto record = client.Debug("record", reply->record_id);
  ASSERT_TRUE(record.ok());
  EXPECT_NE(record->find("\"id\":" + std::to_string(reply->record_id)),
            std::string::npos);
  EXPECT_NE(record->find("\"tenant\":\"debug-tenant\""), std::string::npos);
  EXPECT_NE(record->find("\"status\":\"ok\""), std::string::npos);

  // A rotated-out (never recorded) id answers with an error object, not an
  // empty payload or a dropped connection.
  auto missing = client.Debug("record", reply->record_id + 100000);
  ASSERT_TRUE(missing.ok());
  EXPECT_NE(missing->find("\"error\""), std::string::npos);

  auto build = client.Debug("build");
  ASSERT_TRUE(build.ok());
  EXPECT_NE(build->find("\"version\":"), std::string::npos);
  EXPECT_NE(build->find("\"uptime_seconds\":"), std::string::npos);

  // Unknown target: typed InvalidArgument naming the valid ones.
  auto bogus = client.Debug("bogus");
  ASSERT_FALSE(bogus.ok());
  EXPECT_NE(bogus.status().message().find("sessions|queues"),
            std::string::npos);

  // A client that closes (by Close() or by its destructor) and reconnects
  // never overlaps its old session: the close waits for the session's EOF,
  // and the next accept reaps the finished session before listing the new
  // one.
  for (int round = 0; round < 20; ++round) {
    {
      Client gone(ClientFor(server, "gone"));
      ASSERT_TRUE(gone.Connect().ok());
      if (round % 2 == 0) gone.Close();
    }
    Client next(ClientFor(server, "next"));
    ASSERT_TRUE(next.Connect().ok());
    auto live = next.Debug("sessions");
    ASSERT_TRUE(live.ok()) << live.status().message();
    EXPECT_EQ(live->find("\"tenant\":\"gone\""), std::string::npos)
        << "round " << round << ": " << *live;
    next.Close();
  }

  client.Close();
  ASSERT_TRUE(server.Drain(5.0).ok());
}

TEST_F(ServerTest, DebugHttpEndpointsServeJsonNextToMetrics) {
  ServerOptions options = BaseOptions();
  options.enable_metrics_http = true;
  options.metrics_http_port = 0;  // kernel-assigned
  QueryServer server(&catalog_, &stats_, options);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t http_port = server.metrics_http_port();
  ASSERT_NE(http_port, 0);

  Client client(ClientFor(server, "http-tenant"));
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Query(ChainQuerySql(3), 20000).ok());
  ASSERT_TRUE(client.Query(ChainQuerySql(3), 20000).ok());
  client.Close();

  const std::string metrics = HttpGet(http_port, "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("htqo_tenant_queries_total{tenant=\"http-tenant\"}"),
            std::string::npos);
  EXPECT_NE(metrics.find("htqo_tenant_slo_burn_rate{tenant=\"http-tenant\"}"),
            std::string::npos);
  EXPECT_NE(metrics.find("htqo_build_info{"), std::string::npos);

  const std::string sessions = HttpGet(http_port, "/debug/sessions");
  EXPECT_NE(sessions.find("200 OK"), std::string::npos);
  EXPECT_NE(sessions.find("application/json"), std::string::npos);
  EXPECT_NE(sessions.find("\"sessions\":["), std::string::npos);

  const std::string queues = HttpGet(http_port, "/debug/queues");
  EXPECT_NE(queues.find("\"tenant\":\"http-tenant\""), std::string::npos);

  // The slow log honors ?n= and contains the queries just served.
  const std::string slow = HttpGet(http_port, "/debug/slow?n=1");
  EXPECT_NE(slow.find("200 OK"), std::string::npos);
  EXPECT_NE(slow.find("\"tenant\":\"http-tenant\""), std::string::npos);
  // n=1: exactly one record object in the array.
  std::size_t ids = 0;
  for (std::size_t pos = slow.find("\"id\":"); pos != std::string::npos;
       pos = slow.find("\"id\":", pos + 1)) {
    ++ids;
  }
  EXPECT_EQ(ids, 1u);

  // Record lookup by path segment.
  const std::string rec = HttpGet(http_port, "/debug/record/1");
  EXPECT_NE(rec.find("200 OK"), std::string::npos);
  EXPECT_NE(rec.find("\"id\":1"), std::string::npos);

  // Unknown paths 404 with a JSON hint; the listener survives to serve the
  // next scrape.
  const std::string bogus = HttpGet(http_port, "/debug/bogus");
  EXPECT_NE(bogus.find("404"), std::string::npos);
  EXPECT_NE(bogus.find("\"paths\""), std::string::npos);
  const std::string still = HttpGet(http_port, "/metrics");
  EXPECT_NE(still.find("200 OK"), std::string::npos);

  ASSERT_TRUE(server.Drain(5.0).ok());
}

TEST_F(ServerTest, ClientInitiatedTraceStitchesAcrossProcessBoundary) {
  const std::string trace_dir = ::testing::TempDir();
  // A fake client-side export pid turns the in-process pair into a
  // two-"process" stitched trace (the server always exports its real pid).
  constexpr uint64_t kFakeClientPid = 4200042;

  ServerOptions options = BaseOptions();
  options.trace_dir = trace_dir;
  QueryServer server(&catalog_, &stats_, options);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions copts = ClientFor(server, "traced");
  copts.trace_dir = trace_dir;
  copts.trace_export_pid = kFakeClientPid;
  Client client(copts);
  ASSERT_TRUE(client.Connect().ok());
  auto reply = client.Query(ChainQuerySql(3), 20000);
  ASSERT_TRUE(reply.ok()) << reply.status().message();
  ASSERT_EQ(reply->trace_id.size(), 32u);
  client.Close();
  ASSERT_TRUE(server.Drain(5.0).ok());

  const std::string client_path = trace_dir + "/trace_" + reply->trace_id +
                                  "_" + std::to_string(kFakeClientPid) +
                                  ".json";
  const std::string server_path = trace_dir + "/trace_" + reply->trace_id +
                                  "_" + std::to_string(::getpid()) + ".json";
  const std::string client_json = ReadWholeFile(client_path);
  const std::string server_json = ReadWholeFile(server_path);
  ASSERT_FALSE(client_json.empty()) << "client half missing: " << client_path;
  ASSERT_FALSE(server_json.empty()) << "server half missing: " << server_path;

  // Both halves carry the same trace id metadata.
  const std::string tid_meta = "\"trace_id\":\"" + reply->trace_id + "\"";
  EXPECT_NE(client_json.find(tid_meta), std::string::npos);
  EXPECT_NE(server_json.find(tid_meta), std::string::npos);
  // The client half has the root + attempt spans under the fake pid.
  EXPECT_NE(client_json.find("client.query"), std::string::npos);
  EXPECT_NE(client_json.find("client.attempt"), std::string::npos);
  EXPECT_NE(client_json.find("\"span_id\":\"4200042:"), std::string::npos);
  // The server half re-parents its roots under the client's attempt span —
  // the cross-process edge validate_trace.py --stitch resolves.
  EXPECT_NE(server_json.find("\"parent_id\":\"4200042:"), std::string::npos);
  // And the flight record points back at the same trace.
  ASSERT_GT(reply->record_id, 0u);
  std::remove(client_path.c_str());
  std::remove(server_path.c_str());
}

TEST_F(ServerTest, PerTenantSeriesStayDisjointUnderConcurrentSessions) {
  ServerOptions options = BaseOptions();
  options.admission.max_total_concurrent = 4;
  QueryServer server(&catalog_, &stats_, options);
  ASSERT_TRUE(server.Start().ok());

  const std::string sql = ChainQuerySql(3);
  constexpr int kClientsPerTenant = 2;
  constexpr int kQueriesPerClient = 5;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int i = 0; i < 2 * kClientsPerTenant; ++i) {
    workers.emplace_back([&, i] {
      Client client(
          ClientFor(server, "iso" + std::to_string(i % 2)));
      if (!client.Connect().ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int q = 0; q < kQueriesPerClient; ++q) {
        if (!client.Query(sql, 20000).ok()) failures.fetch_add(1);
      }
      client.Close();
    });
  }
  for (std::thread& t : workers) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Each tenant's labeled counter accounts exactly its own queries, even
  // with both tenants' sessions racing (the labeled-family TSan check).
  Client observer(ClientFor(server, "observer"));
  ASSERT_TRUE(observer.Connect().ok());
  auto metrics = observer.Metrics();
  ASSERT_TRUE(metrics.ok());
  const uint64_t expect =
      static_cast<uint64_t>(kClientsPerTenant * kQueriesPerClient);
  for (const char* tenant : {"iso0", "iso1"}) {
    const std::string line = "htqo_tenant_queries_total{tenant=\"" +
                             std::string(tenant) + "\"} " +
                             std::to_string(expect);
    EXPECT_NE(metrics->find(line), std::string::npos)
        << "missing or miscounted series: " << line << "\n"
        << *metrics;
    EXPECT_NE(metrics->find("htqo_tenant_slo_burn_rate{tenant=\"" +
                            std::string(tenant) + "\"}"),
              std::string::npos);
  }
  observer.Close();
  ASSERT_TRUE(server.Drain(5.0).ok());
}

}  // namespace
}  // namespace htqo
