// EvoScope Live tests: real-socket HTTP round-trips for every introspection
// endpoint, event-journal sequencing / pagination / ring overflow, the
// JSONL sink, log-hook capture with EVO_LOG_EVERY_N rate limiting,
// queryable-state revocation lifecycle, JSON escaping of binary state
// values, and concurrent publish/query/unpublish against a live server.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "dataflow/job.h"
#include "dataflow/topology.h"
#include "obs/http_server.h"
#include "obs/introspection.h"
#include "obs/journal.h"
#include "state/mem_backend.h"
#include "state/queryable.h"
#include "state/state_api.h"

namespace evo {
namespace {


// ---------------------------------------------------------------------------
// Raw-socket HTTP client (the tests must not trust the server's own parser).
// ---------------------------------------------------------------------------

struct HttpReply {
  int status = 0;
  std::string body;
  std::string raw;
};

HttpReply HttpGet(uint16_t port, const std::string& target,
                  const std::string& method = "GET") {
  HttpReply reply;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return reply;
  }
  std::string request = method + " " + target +
                        " HTTP/1.1\r\nHost: localhost\r\nConnection: "
                        "close\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    reply.raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  if (reply.raw.rfind("HTTP/1.1 ", 0) == 0 && reply.raw.size() > 12) {
    reply.status = std::atoi(reply.raw.c_str() + 9);
  }
  size_t header_end = reply.raw.find("\r\n\r\n");
  if (header_end != std::string::npos) {
    reply.body = reply.raw.substr(header_end + 4);
  }
  return reply;
}

// ---------------------------------------------------------------------------
// HttpServer transport
// ---------------------------------------------------------------------------

TEST(HttpServerTest, RoutesExactAndPrefixAndAnswers404) {
  obs::HttpServer server;
  server.HandleExact("/hello", [](const obs::HttpRequest&) {
    return obs::HttpResponse::Text("hi");
  });
  server.HandlePrefix("/items/", [](const obs::HttpRequest& r) {
    return obs::HttpResponse::Json("{\"path\": \"" + r.path + "\"}");
  });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);  // port 0 resolved to an ephemeral port

  EXPECT_EQ(HttpGet(server.port(), "/hello").status, 200);
  EXPECT_EQ(HttpGet(server.port(), "/hello").body, "hi");
  HttpReply deep = HttpGet(server.port(), "/items/a/b");
  EXPECT_EQ(deep.status, 200);
  EXPECT_NE(deep.body.find("/items/a/b"), std::string::npos);
  EXPECT_EQ(HttpGet(server.port(), "/nope").status, 404);
  server.Stop();
}

TEST(HttpServerTest, ParsesQueryParametersWithPercentDecoding) {
  obs::HttpServer server;
  server.HandleExact("/echo", [](const obs::HttpRequest& r) {
    return obs::HttpResponse::Text(r.Param("a") + "|" + r.Param("b", "dflt"));
  });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(HttpGet(server.port(), "/echo?a=x%20y").body, "x y|dflt");
  EXPECT_EQ(HttpGet(server.port(), "/echo?a=1&b=2").body, "1|2");
  server.Stop();
}

TEST(HttpServerTest, RejectsUnsupportedMethods) {
  obs::HttpServer server;
  server.HandleExact("/x", [](const obs::HttpRequest&) {
    return obs::HttpResponse::Text("x");
  });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(HttpGet(server.port(), "/x", "POST").status, 405);
  // HEAD is allowed and must carry no body.
  HttpReply head = HttpGet(server.port(), "/x", "HEAD");
  EXPECT_EQ(head.status, 200);
  EXPECT_TRUE(head.body.empty());
  server.Stop();
}

TEST(HttpServerTest, SlowClientGetsRequestTimeout) {
  obs::HttpServerOptions options;
  options.io_timeout_ms = 150;  // fast test
  obs::HttpServer server(options);
  ASSERT_TRUE(server.Start().ok());

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  // Send half a request line and stall; the server must give up, not hang.
  (void)::send(fd, "GET /slow", 9, 0);
  std::string raw;
  char buf[512];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) raw.append(buf, n);
  ::close(fd);
  EXPECT_NE(raw.find("408"), std::string::npos) << raw;
  server.Stop();
}

TEST(HttpServerTest, StopIsIdempotentAndRestartable) {
  obs::HttpServer server;
  ASSERT_TRUE(server.Start().ok());
  uint16_t port = server.port();
  EXPECT_TRUE(server.running());
  server.Stop();
  server.Stop();
  EXPECT_FALSE(server.running());
  // The old port no longer answers.
  EXPECT_EQ(HttpGet(port, "/").status, 0);
}

TEST(HttpServerTest, AcceptRetriesAfterDescriptorExhaustion) {
  obs::HttpServer server;
  server.HandleExact("/ping", [](const obs::HttpRequest&) {
    return obs::HttpResponse::Text("pong");
  });
  ASSERT_TRUE(server.Start().ok());

  // With the soft descriptor limit at the lowest free descriptor, accept()
  // fails with EMFILE: the silent client's connection is taken on the
  // descriptor the accept thread had already reserved (or stays queued),
  // and every later accept() has no descriptor to allocate.
  int silent = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(silent, 0);
  int lowest_free = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit tight = saved;
  tight.rlim_cur = static_cast<rlim_t>(lowest_free);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  int connected =
      ::connect(silent, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  EXPECT_EQ(connected, 0);

  // Once descriptors are available again the server accepts and serves.
  HttpReply reply = HttpGet(server.port(), "/ping");
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.body, "pong");
  ::close(silent);
  server.Stop();
}

// ---------------------------------------------------------------------------
// EventJournal
// ---------------------------------------------------------------------------

TEST(JournalTest, AssignsMonotonicSequencesAndPaginates) {
  obs::EventJournal journal;
  for (int i = 0; i < 10; ++i) {
    journal.Emit(obs::EventType::kLog, "test", "m" + std::to_string(i));
  }
  EXPECT_EQ(journal.TotalEmitted(), 10u);

  auto all = journal.Since(0);
  ASSERT_EQ(all.size(), 10u);
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].seq, i + 1);  // strictly increasing from 1
  }
  // Cursor-style pagination: each page starts after the previous page's
  // last sequence, pages never overlap, and the union is everything.
  auto page1 = journal.Since(0, 4);
  auto page2 = journal.Since(page1.back().seq, 4);
  auto page3 = journal.Since(page2.back().seq, 4);
  EXPECT_EQ(page1.size(), 4u);
  EXPECT_EQ(page2.size(), 4u);
  EXPECT_EQ(page3.size(), 2u);
  EXPECT_EQ(page2.front().seq, page1.back().seq + 1);
  EXPECT_EQ(page3.back().seq, 10u);
}

TEST(JournalTest, RingOverflowKeepsNewestAndReportsDropped) {
  obs::JournalOptions options;
  options.capacity = 16;
  obs::EventJournal journal(options);
  for (int i = 0; i < 100; ++i) {
    journal.Emit(obs::EventType::kLog, "test", std::to_string(i));
  }
  EXPECT_EQ(journal.TotalEmitted(), 100u);
  EXPECT_EQ(journal.OldestRetained(), 85u);  // newest 16 of 100
  EXPECT_EQ(journal.DroppedBefore(0), 84u);

  auto events = journal.Since(0);
  ASSERT_EQ(events.size(), 16u);
  EXPECT_EQ(events.front().seq, 85u);
  EXPECT_EQ(events.back().seq, 100u);
  // A stale cursor inside the dropped range still only surfaces the gap.
  EXPECT_EQ(journal.DroppedBefore(50), 34u);
}

TEST(JournalTest, ConcurrentEmittersNeverCollideOnSequences) {
  obs::JournalOptions options;
  options.capacity = 8192;
  obs::EventJournal journal(options);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&journal, t] {
      for (int i = 0; i < kPerThread; ++i) {
        journal.Emit(obs::EventType::kLog, "thread-" + std::to_string(t),
                     std::to_string(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(journal.TotalEmitted(),
            static_cast<uint64_t>(kThreads * kPerThread));
  auto events = journal.Since(0);
  ASSERT_EQ(events.size(), static_cast<size_t>(kThreads * kPerThread));
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
}

TEST(JournalTest, CursorReaderSeesEverySequenceOnceInOrder) {
  std::string path = ::testing::TempDir() + "introspection_journal_order.jsonl";
  std::remove(path.c_str());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  constexpr uint64_t kTotal = kThreads * kPerThread;
  std::vector<uint64_t> seen;
  {
    obs::JournalOptions options;
    options.capacity = kTotal;  // nothing is overwritten, so nothing may be missed
    options.jsonl_path = path;
    obs::EventJournal journal(options);
    std::atomic<bool> done{false};
    // Pages with the last sequence it got as the cursor, like a client of
    // `/events?since=`, until one page after the emitters finished.
    std::thread reader([&] {
      uint64_t cursor = 0;
      bool last_page = false;
      while (!last_page) {
        last_page = done.load(std::memory_order_acquire);
        for (const obs::Event& e : journal.Since(cursor)) {
          seen.push_back(e.seq);
          cursor = e.seq;
        }
      }
    });
    std::vector<std::thread> emitters;
    for (int t = 0; t < kThreads; ++t) {
      emitters.emplace_back([&journal] {
        for (int i = 0; i < kPerThread; ++i) {
          journal.Emit(obs::EventType::kLog, "test", "m");
        }
      });
    }
    for (auto& th : emitters) th.join();
    done.store(true, std::memory_order_release);
    reader.join();
  }

  ASSERT_EQ(seen.size(), kTotal);
  for (uint64_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(seen[i], i + 1) << "cursor reader skipped or repeated";
  }
  // The JSONL file holds the same events in sequence order.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  uint64_t expected = 1;
  while (std::getline(in, line)) {
    ASSERT_EQ(line.rfind("{\"seq\": " + std::to_string(expected) + ",", 0), 0u)
        << line;
    ++expected;
  }
  EXPECT_EQ(expected, kTotal + 1);
  std::remove(path.c_str());
}

TEST(JournalTest, JsonlSinkAppendsOneLinePerEvent) {
  std::string path = ::testing::TempDir() + "introspection_journal.jsonl";
  std::remove(path.c_str());
  {
    obs::JournalOptions options;
    options.jsonl_path = path;
    obs::EventJournal journal(options);
    journal.Emit(obs::EventType::kJobStart, "job", "start",
                 {obs::F("tasks", uint64_t{3})});
    journal.Emit(obs::EventType::kJobStop, "job", "stop");
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  bool saw_start = false;
  while (std::getline(in, line)) {
    ++lines;
    if (line.find("\"job_start\"") != std::string::npos) saw_start = true;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(lines, 2);
  EXPECT_TRUE(saw_start);
  std::remove(path.c_str());
}

TEST(JournalTest, LogHookRoutesWarningsIntoJournal) {
  obs::EventJournal journal;
  journal.InstallLogHook(LogLevel::kWarn);
  EVO_LOG_WARN << "introspection-test-warning";
  journal.RemoveLogHook();
  EVO_LOG_WARN << "after-removal";  // must NOT be captured

  auto events = journal.Since(0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, obs::EventType::kLog);
  EXPECT_NE(events[0].message.find("introspection-test-warning"),
            std::string::npos);
}

TEST(JournalTest, LogEveryNEmitsOneInN) {
  obs::EventJournal journal;
  journal.InstallLogHook(LogLevel::kWarn);
  for (int i = 0; i < 100; ++i) {
    EVO_LOG_WARN_EVERY_N(10) << "hot-path-storm " << i;
  }
  journal.RemoveLogHook();
  // Hits 1, 11, 21, ... 91: exactly 10 of 100.
  EXPECT_EQ(journal.Since(0).size(), 10u);
}

// ---------------------------------------------------------------------------
// QueryableStateRegistry lifecycle
// ---------------------------------------------------------------------------

TEST(QueryableStateTest, RevokedEntriesAnswerUnavailableThenRepublish) {
  state::QueryableStateRegistry registry;
  auto backend = std::make_unique<state::MemBackend>(128);
  ASSERT_TRUE(backend->Put(0, 7, "", "v1").ok());
  ASSERT_TRUE(registry.Publish("job.state", backend.get(), 0).ok());

  auto hit = registry.Query("job.state", 7);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.value().value_or(""), "v1");

  // Double-publish over a live entry is refused.
  EXPECT_TRUE(registry.Publish("job.state", backend.get(), 0).code() ==
              StatusCode::kAlreadyExists);

  // Teardown: revoke by backend, as Task/JobRunner do. The *name* survives
  // but queries answer Unavailable — never a dangling pointer.
  EXPECT_EQ(registry.RevokeBackend(backend.get()), 1u);
  backend.reset();
  auto gone = registry.Query("job.state", 7);
  EXPECT_EQ(gone.status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(registry.IsAvailable("job.state"));
  EXPECT_EQ(registry.PublishedNames().size(), 1u);

  // A restarted job re-publishes the same name.
  state::MemBackend fresh(128);
  ASSERT_TRUE(fresh.Put(0, 7, "", "v2").ok());
  ASSERT_TRUE(registry.Publish("job.state", &fresh, 0).ok());
  auto back = registry.Query("job.state", 7);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().value_or(""), "v2");

  EXPECT_EQ(registry.Query("missing", 1).status().code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// IntrospectionServer endpoints (unit level: hand-assembled surfaces)
// ---------------------------------------------------------------------------

class IntrospectionFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    backend_ = std::make_unique<state::MemBackend>(128);
    ASSERT_TRUE(registry_.Publish("demo.counts", backend_.get(), 0).ok());
    metrics_.GetCounter("demo_total")->Inc(42);
    journal_.Emit(obs::EventType::kJobStart, "job", "unit test start");

    server_.AttachMetrics(&metrics_);
    server_.AttachTracer(&tracer_);
    server_.AttachJournal(&journal_);
    server_.AttachQueryableState(&registry_);
    server_.SetTopologyProvider(
        [] { return std::string("{\"vertices\":[],\"edges\":[]}"); });
    ASSERT_TRUE(server_.Start().ok());
  }

  void TearDown() override { server_.Stop(); }

  MetricsRegistry metrics_;
  obs::Tracer tracer_;
  obs::EventJournal journal_;
  state::QueryableStateRegistry registry_;
  std::unique_ptr<state::MemBackend> backend_;
  obs::IntrospectionServer server_;
};

TEST_F(IntrospectionFixture, AllEndpointsAnswer200) {
  for (const char* path :
       {"/", "/healthz", "/metrics", "/metrics.json", "/topology", "/spans",
        "/events", "/state"}) {
    HttpReply r = HttpGet(server_.port(), path);
    EXPECT_EQ(r.status, 200) << path << "\n" << r.raw;
    EXPECT_FALSE(r.body.empty()) << path;
  }
  EXPECT_NE(HttpGet(server_.port(), "/metrics").body.find("demo_total 42"),
            std::string::npos);
  EXPECT_NE(HttpGet(server_.port(), "/events").body.find("unit test start"),
            std::string::npos);
  EXPECT_NE(HttpGet(server_.port(), "/state").body.find("demo.counts"),
            std::string::npos);
}

TEST_F(IntrospectionFixture, PointQueryAndScanRoundTrip) {
  ASSERT_TRUE(backend_->Put(0, 11, "", "hello").ok());
  ASSERT_TRUE(backend_->Put(0, 11, "sub-a", "va").ok());
  ASSERT_TRUE(backend_->Put(0, 11, "sub-b", "vb").ok());

  HttpReply point = HttpGet(server_.port(), "/state/demo.counts?key=11");
  EXPECT_EQ(point.status, 200);
  EXPECT_NE(point.body.find("\"found\": true"), std::string::npos);
  EXPECT_NE(point.body.find("hello"), std::string::npos);

  HttpReply miss = HttpGet(server_.port(), "/state/demo.counts?key=999");
  EXPECT_EQ(miss.status, 200);
  EXPECT_NE(miss.body.find("\"found\": false"), std::string::npos);

  HttpReply sub =
      HttpGet(server_.port(), "/state/demo.counts?key=11&user_key=sub-a");
  EXPECT_EQ(sub.status, 200);
  EXPECT_NE(sub.body.find("va"), std::string::npos);

  HttpReply scan =
      HttpGet(server_.port(), "/state/demo.counts/scan?key=11&prefix=sub-");
  EXPECT_EQ(scan.status, 200);
  EXPECT_NE(scan.body.find("\"matched\": 2"), std::string::npos);

  HttpReply limited =
      HttpGet(server_.port(), "/state/demo.counts/scan?key=11&limit=1");
  EXPECT_EQ(limited.status, 200);
  EXPECT_NE(limited.body.find("\"truncated\": true"), std::string::npos);
}

TEST_F(IntrospectionFixture, BinaryStateValuesAreJsonEscaped) {
  std::string binary;
  binary.push_back('\x01');
  binary.push_back('\x7f');
  binary.push_back(static_cast<char>(0x80));
  binary.push_back(static_cast<char>(0xff));
  binary += "\"\\\n";
  ASSERT_TRUE(backend_->Put(0, 5, "", binary).ok());

  HttpReply r = HttpGet(server_.port(), "/state/demo.counts?key=5");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\\u0001"), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("\\u007f"), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("\\u0080"), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("\\u00ff"), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("\\\""), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("\\\\"), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("\\n"), std::string::npos) << r.body;
  // No raw control byte may survive into the JSON body.
  for (char c : r.body) {
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n' ||
                c == '\r' || c == '\t')
        << "raw byte " << static_cast<int>(c);
  }
}

TEST_F(IntrospectionFixture, EventsPaginateWithSinceCursor) {
  for (int i = 0; i < 5; ++i) {
    journal_.Emit(obs::EventType::kLog, "test", "e" + std::to_string(i));
  }
  HttpReply page = HttpGet(server_.port(), "/events?since=0&limit=3");
  EXPECT_EQ(page.status, 200);
  EXPECT_NE(page.body.find("\"next_since\": 3"), std::string::npos)
      << page.body;
  HttpReply rest = HttpGet(server_.port(), "/events?since=3");
  EXPECT_EQ(rest.status, 200);
  EXPECT_NE(rest.body.find("\"seq\": 4"), std::string::npos);
  EXPECT_EQ(rest.body.find("\"seq\": 2"), std::string::npos);
}

TEST_F(IntrospectionFixture, BadInputsAnswer400And404And503) {
  EXPECT_EQ(HttpGet(server_.port(), "/events?since=garbage").status, 400);
  EXPECT_EQ(HttpGet(server_.port(), "/events?limit=-1").status, 400);
  EXPECT_EQ(HttpGet(server_.port(), "/state/demo.counts").status, 400);
  EXPECT_EQ(HttpGet(server_.port(), "/state/demo.counts?key=abc").status, 400);
  EXPECT_EQ(HttpGet(server_.port(), "/state/missing?key=1").status, 404);
  registry_.Revoke("demo.counts");
  EXPECT_EQ(HttpGet(server_.port(), "/state/demo.counts?key=1").status, 503);
}

TEST_F(IntrospectionFixture, ConcurrentPublishQueryUnpublishIsCrashFree) {
  std::atomic<bool> stop{false};
  // Mutator: flip the entry between live and revoked as fast as possible.
  state::MemBackend flapping(128);
  ASSERT_TRUE(flapping.Put(0, 1, "", "x").ok());
  std::thread mutator([&] {
    while (!stop.load()) {
      (void)registry_.Publish("flap", &flapping, 0);
      (void)registry_.Revoke("flap");
    }
    (void)registry_.Unpublish("flap");
  });
  // Readers: hammer the point-query endpoint; every answer must be a clean
  // HTTP status (200 while live, 404/503 around the transitions).
  std::vector<std::thread> readers;
  std::atomic<int> bad{0};
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        int status = HttpGet(server_.port(), "/state/flap?key=1").status;
        if (status != 200 && status != 404 && status != 503) bad.fetch_add(1);
      }
    });
  }
  for (auto& th : readers) th.join();
  stop.store(true);
  mutator.join();
  EXPECT_EQ(bad.load(), 0);
}

// ---------------------------------------------------------------------------
// Full-job integration: JobRunner wiring end to end
// ---------------------------------------------------------------------------

TEST(JobIntrospectionTest, RunningJobServesMetricsTopologyEventsAndState) {
  dataflow::ReplayableLog log;
  for (int i = 0; i < 200; ++i) {
    log.Append(i * 10, Value::Tuple("k" + std::to_string(i % 4), int64_t{1}));
  }
  dataflow::Topology topo;
  auto src = topo.AddSource("src", [&] {
    // Stay idle at EOF: the endpoints are probed against a *running* job.
    dataflow::LogSourceOptions options;
    options.end_at_eof = false;
    return std::make_unique<dataflow::LogSource>(&log, options);
  });
  auto keyed = topo.KeyBy(src, "key", [](const Value& v) {
    return v.AsList()[0];
  });
  auto counted = topo.Keyed(keyed, "count", [] {
    dataflow::ProcessOperator::Hooks hooks;
    hooks.on_record = [](dataflow::OperatorContext* octx, Record& record,
                         dataflow::Collector* out) -> Status {
      state::ValueState<int64_t> total(octx->state(), "total");
      EVO_ASSIGN_OR_RETURN(int64_t cur, total.GetOr(0));
      EVO_RETURN_IF_ERROR(total.Put(cur + 1));
      out->Emit(std::move(record));
      return Status::OK();
    };
    return std::make_unique<dataflow::ProcessOperator>(std::move(hooks));
  });
  dataflow::CollectingSink sink;
  topo.Sink(counted, "sink", sink.AsSinkFn());

  dataflow::JobConfig config;
  config.introspection_port = 0;  // ephemeral
  dataflow::JobRunner job(topo, config);
  ASSERT_TRUE(job.Start().ok());
  uint16_t port = job.IntrospectionPort();
  ASSERT_NE(port, 0);
  // Wait until the pipeline has digested the log, then checkpoint: that both
  // journals a checkpoint_completed event and publishes lazily registered
  // state while the job keeps running.
  Stopwatch waited;
  while (job.RecordsIn()["count"] < 200 && waited.ElapsedMillis() < 10000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(job.RecordsIn()["count"], 200u);
  ASSERT_TRUE(job.TriggerCheckpoint(10000).ok());

  HttpReply metrics = HttpGet(port, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("task_records_in"), std::string::npos);

  HttpReply topology = HttpGet(port, "/topology");
  EXPECT_EQ(topology.status, 200);
  for (const char* v : {"src", "key", "count", "sink"}) {
    EXPECT_NE(topology.body.find(v), std::string::npos) << v;
  }

  HttpReply events = HttpGet(port, "/events");
  EXPECT_EQ(events.status, 200);
  EXPECT_NE(events.body.find("job_start"), std::string::npos);
  EXPECT_NE(events.body.find("state_published"), std::string::npos);
  EXPECT_NE(events.body.find("checkpoint_completed"), std::string::npos)
      << events.body;

  // The lazily registered ValueState was auto-published as
  // "count.<subtask>.total" and answers a live point query.
  bool queried = false;
  for (const std::string& name : job.queryable()->PublishedNames()) {
    if (name.find(".total") == std::string::npos) continue;
    uint64_t sample_key = 0;
    bool found = false;
    (void)job.queryable()->QueryAll(
        name, [&](uint64_t key, std::string_view, std::string_view) {
          if (!found) {
            sample_key = key;
            found = true;
          }
        });
    if (!found) continue;
    HttpReply r = HttpGet(port, "/state/" + name +
                                    "?key=" + std::to_string(sample_key));
    EXPECT_EQ(r.status, 200) << r.raw;
    EXPECT_NE(r.body.find("\"found\": true"), std::string::npos);
    queried = true;
    break;
  }
  EXPECT_TRUE(queried) << "no populated total state published";

  // Stop tears the server down and revokes the backends: external reads get
  // Unavailable, never a dangling pointer.
  std::string published_name = job.queryable()->PublishedNames().front();
  job.Stop();
  EXPECT_EQ(HttpGet(port, "/metrics").status, 0);  // server gone
  EXPECT_EQ(job.queryable()->Query(published_name, 1).status().code(),
            StatusCode::kUnavailable);
  EXPECT_NE(job.journal()->Since(0).size(), 0u);
}

TEST(JobIntrospectionTest, KilledTaskStateAnswers503AfterStop) {
  // A task killed by fault injection takes its queryable state with it: the
  // failure path and Stop() revoke published entries, and an external
  // introspection server that outlives the job must answer 503 for them —
  // observable unavailability, never a dangling backend pointer.
  dataflow::ReplayableLog log;
  for (int i = 0; i < 200; ++i) {
    log.Append(i * 10, Value::Tuple("k" + std::to_string(i % 4), int64_t{1}));
  }
  dataflow::Topology topo;
  auto src = topo.AddSource("src", [&] {
    dataflow::LogSourceOptions options;
    options.end_at_eof = false;  // keep the job alive until we kill it
    return std::make_unique<dataflow::LogSource>(&log, options);
  });
  auto keyed = topo.KeyBy(src, "key", [](const Value& v) {
    return v.AsList()[0];
  });
  auto counted = topo.Keyed(keyed, "count", [] {
    dataflow::ProcessOperator::Hooks hooks;
    hooks.on_record = [](dataflow::OperatorContext* octx, Record& record,
                         dataflow::Collector* out) -> Status {
      state::ValueState<int64_t> total(octx->state(), "total");
      EVO_ASSIGN_OR_RETURN(int64_t cur, total.GetOr(0));
      EVO_RETURN_IF_ERROR(total.Put(cur + 1));
      out->Emit(std::move(record));
      return Status::OK();
    };
    return std::make_unique<dataflow::ProcessOperator>(std::move(hooks));
  });
  dataflow::CollectingSink sink;
  topo.Sink(counted, "sink", sink.AsSinkFn());

  // The registry and server live *outside* the job, the way a deployment
  // keeps one scope endpoint across job restarts.
  state::QueryableStateRegistry registry;
  obs::IntrospectionServer server;
  server.AttachQueryableState(&registry);
  ASSERT_TRUE(server.Start().ok());

  dataflow::JobConfig config;
  config.queryable_registry = &registry;
  dataflow::JobRunner job(topo, config);
  ASSERT_TRUE(job.Start().ok());
  Stopwatch waited;
  while (job.RecordsIn()["count"] < 200 && waited.ElapsedMillis() < 10000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(job.RecordsIn()["count"], 200u);
  ASSERT_TRUE(job.TriggerCheckpoint(10000).ok());  // publishes lazy state

  // Pick a populated published entry and prove it answers while live.
  std::string name;
  uint64_t sample_key = 0;
  for (const std::string& candidate : registry.PublishedNames()) {
    if (candidate.find(".total") == std::string::npos) continue;
    bool found = false;
    (void)registry.QueryAll(
        candidate, [&](uint64_t key, std::string_view, std::string_view) {
          if (!found) {
            sample_key = key;
            found = true;
          }
        });
    if (found) {
      name = candidate;
      break;
    }
  }
  ASSERT_FALSE(name.empty()) << "no populated total state published";
  const std::string target =
      "/state/" + name + "?key=" + std::to_string(sample_key);
  EXPECT_EQ(HttpGet(server.port(), target).status, 200);

  // Kill the task that owns the state, then stop the job. The server stays
  // up; the entry must flip to 503 (revoked), not 200-with-garbage or 404.
  ASSERT_TRUE(job.InjectFailure("count", 0).ok());
  job.Stop();
  EXPECT_EQ(HttpGet(server.port(), target).status, 503) << target;
  server.Stop();
}

TEST(JobIntrospectionTest, JournalRecordsStopEvent) {
  dataflow::ReplayableLog log;
  log.Append(0, Value::Tuple("a", int64_t{1}));
  dataflow::Topology topo;
  auto src = topo.AddSource("src", [&] {
    return std::make_unique<dataflow::LogSource>(&log);
  });
  dataflow::CollectingSink sink;
  topo.Sink(src, "sink", sink.AsSinkFn());

  dataflow::JobRunner job(topo, dataflow::JobConfig{});
  ASSERT_TRUE(job.Start().ok());
  ASSERT_TRUE(job.AwaitCompletion(10000).ok());
  job.Stop();

  bool saw_start = false, saw_stop = false;
  for (const obs::Event& e : job.journal()->Since(0)) {
    saw_start |= e.type == obs::EventType::kJobStart;
    saw_stop |= e.type == obs::EventType::kJobStop;
  }
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_stop);
}

}  // namespace
}  // namespace evo
