// Tests for the serving subsystem (src/serve): admission-queue policy
// (priorities, per-client fairness and quotas, bounded-queue rejection,
// drain semantics), wire-protocol round-trips (manifest and report bytes
// travel exactly), and the daemon end-to-end over a real Unix socket —
// submits byte-identical to a direct `hlsprof-run` report, live metrics,
// structured queue-full rejection, and graceful drain.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "runner/manifest.hpp"
#include "runner/report.hpp"
#include "serve/admission.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "telemetry/telemetry.hpp"

namespace hlsprof {
namespace {

namespace fs = std::filesystem;

using serve::AdmissionOptions;
using serve::AdmissionQueue;
using serve::Reject;

AdmissionQueue::Request req(const std::string& client, int priority = 0) {
  AdmissionQueue::Request r;
  r.client = client;
  r.priority = priority;
  r.work = [] {};
  return r;
}

// ---- admission policy ------------------------------------------------------

TEST(ServeAdmission, HigherPriorityPopsFirst) {
  AdmissionQueue q(AdmissionOptions{});
  std::uint64_t low = 0, high = 0, mid = 0;
  ASSERT_EQ(q.submit(req("a", 0), &low), Reject::none);
  ASSERT_EQ(q.submit(req("a", 9), &high), Reject::none);
  ASSERT_EQ(q.submit(req("a", 3), &mid), Reject::none);

  AdmissionQueue::Request out;
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.id, high);
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.id, mid);
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.id, low);
}

TEST(ServeAdmission, RoundRobinAcrossClientsFifoWithin) {
  AdmissionQueue q(AdmissionOptions{});
  // a1 a2 a3 then b1 b2, all same priority: rotation alternates clients,
  // FIFO within each, so a burst from `a` cannot starve `b`.
  std::uint64_t a1, a2, a3, b1, b2;
  ASSERT_EQ(q.submit(req("a"), &a1), Reject::none);
  ASSERT_EQ(q.submit(req("a"), &a2), Reject::none);
  ASSERT_EQ(q.submit(req("a"), &a3), Reject::none);
  ASSERT_EQ(q.submit(req("b"), &b1), Reject::none);
  ASSERT_EQ(q.submit(req("b"), &b2), Reject::none);

  std::vector<std::uint64_t> order;
  AdmissionQueue::Request out;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.pop(&out));
    order.push_back(out.id);
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{a1, b1, a2, b2, a3}));
}

TEST(ServeAdmission, QueueFullRejectsExplicitly) {
  AdmissionOptions options;
  options.queue_capacity = 2;
  AdmissionQueue q(options);
  EXPECT_EQ(q.submit(req("a")), Reject::none);
  EXPECT_EQ(q.submit(req("b")), Reject::none);
  EXPECT_EQ(q.submit(req("c")), Reject::queue_full);

  // Popping frees a slot (capacity bounds *waiting* requests).
  AdmissionQueue::Request out;
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(q.submit(req("c")), Reject::none);

  const auto s = q.stats();
  EXPECT_EQ(s.submitted, 4u);
  EXPECT_EQ(s.admitted, 3u);
  EXPECT_EQ(s.rejected_full, 1u);
}

TEST(ServeAdmission, PerClientQuotaCountsQueuedPlusRunning) {
  AdmissionOptions options;
  options.per_client_inflight = 1;
  AdmissionQueue q(options);
  ASSERT_EQ(q.submit(req("a")), Reject::none);
  EXPECT_EQ(q.submit(req("a")), Reject::client_quota);
  // Another client is unaffected.
  EXPECT_EQ(q.submit(req("b")), Reject::none);

  // Popping does NOT release the quota (the request is now running)...
  AdmissionQueue::Request out;
  ASSERT_TRUE(q.pop(&out));
  ASSERT_EQ(out.client, "a");
  EXPECT_EQ(q.submit(req("a")), Reject::client_quota);
  // ...finish() does.
  q.finish("a");
  EXPECT_EQ(q.submit(req("a")), Reject::none);
  EXPECT_EQ(q.stats().rejected_quota, 2u);
}

TEST(ServeAdmission, DrainRejectsNewAndDrainsRemainder) {
  AdmissionQueue q(AdmissionOptions{});
  ASSERT_EQ(q.submit(req("a")), Reject::none);
  ASSERT_EQ(q.submit(req("b")), Reject::none);
  q.drain();
  EXPECT_TRUE(q.draining());
  EXPECT_EQ(q.submit(req("c")), Reject::draining);

  // Everything admitted before the drain is still served...
  AdmissionQueue::Request out;
  EXPECT_TRUE(q.pop(&out));
  EXPECT_TRUE(q.pop(&out));
  // ...then pop() reports completion instead of blocking.
  EXPECT_FALSE(q.pop(&out));

  const auto s = q.stats();
  EXPECT_EQ(s.rejected_draining, 1u);
  EXPECT_EQ(s.started, 2u);
  EXPECT_EQ(s.queued, 0u);
}

TEST(ServeAdmission, DrainWakesBlockedConsumer) {
  AdmissionQueue q(AdmissionOptions{});
  std::atomic<int> result{-1};
  std::thread consumer([&] {
    AdmissionQueue::Request out;
    result = q.pop(&out) ? 1 : 0;
  });
  q.drain();
  consumer.join();
  EXPECT_EQ(result.load(), 0);
}

// ---- wire protocol ---------------------------------------------------------

TEST(ServeProtocol, SubmitRequestRoundTripsManifestBytes) {
  serve::Request r;
  r.op = serve::Request::Op::submit;
  r.id = 42;
  r.client = "ci-\"3\"";
  r.priority = -2;
  r.manifest = "workload = pi\nsteps = 100\n# \xc3\xa9\t\"quoted\"\n";

  const std::string line = serve::request_line(r);
  EXPECT_EQ(line.find('\n'), std::string::npos)
      << "requests must be single lines";
  const serve::Request back = serve::parse_request(line);
  EXPECT_EQ(back.op, serve::Request::Op::submit);
  EXPECT_EQ(back.id, 42u);
  EXPECT_EQ(back.client, r.client);
  EXPECT_EQ(back.priority, -2);
  EXPECT_EQ(back.manifest, r.manifest);
}

TEST(ServeProtocol, SubmitOkResponseRoundTripsReportBytes) {
  const std::string report =
      "{\"schema\":\"hlsprof-batch-report\",\"label\":\"x\\ny\"}";
  const std::string telemetry = "{\"schema\":\"hlsprof-telemetry\"}";
  const std::string line =
      serve::submit_ok_response(7, "sweep", 3, 2, report, telemetry);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  const serve::Response r = serve::parse_response(line);
  EXPECT_EQ(r.id, 7u);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.label, "sweep");
  EXPECT_EQ(r.jobs, 3);
  EXPECT_EQ(r.ok_jobs, 2);
  EXPECT_EQ(r.report, report);
  EXPECT_EQ(r.telemetry, telemetry);
}

TEST(ServeProtocol, ErrorAndInlineResponsesRoundTrip) {
  serve::Response e =
      serve::parse_response(serve::error_response(9, "queue_full", "cap 64"));
  EXPECT_EQ(e.id, 9u);
  EXPECT_FALSE(e.ok);
  EXPECT_EQ(e.error, "queue_full");
  EXPECT_EQ(e.message, "cap 64");

  serve::Response m =
      serve::parse_response(serve::metrics_response(1, "{\"a\":1}"));
  EXPECT_TRUE(m.ok);
  EXPECT_EQ(m.metrics, "{\"a\":1}");

  serve::Response p =
      serve::parse_response(serve::ping_response(2, "hlsprof 1.0"));
  EXPECT_TRUE(p.ok);
  EXPECT_EQ(p.build, "hlsprof 1.0");

  serve::Response s = serve::parse_response(serve::shutdown_response(3));
  EXPECT_TRUE(s.ok);
  EXPECT_TRUE(s.draining);
}

TEST(ServeProtocol, ProgressEventIsTheRunnerEventPlusRequestId) {
  runner::JobResult j;
  j.index = 4;
  j.name = "pi \"quoted\" name=x";
  j.num_threads = 2;
  j.timeline_cycles = 500;
  j.state_cycles = {10, 900, 0, 90};
  j.trace_mem_bytes = 64;
  const std::string line = serve::progress_event(77, j, 2, 3);
  // Same members, same order, as the hlsprof-run --progress line.
  const std::string bare = runner::format_progress_event(j, 2, 3);
  EXPECT_EQ(line, R"({"id":77,"ok":true,)" + bare.substr(1));

  const serve::Response r = serve::parse_response(line);
  EXPECT_EQ(r.id, 77u);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.event, "progress");
  EXPECT_EQ(r.progress.job.index, 4);
  EXPECT_EQ(r.progress.done, 2);
  EXPECT_EQ(r.progress.jobs, 3);
  EXPECT_EQ(r.progress.job.name, j.name);
  EXPECT_EQ(r.progress.job.state_cycles, j.state_cycles);
  EXPECT_EQ(r.progress.job.trace_mem_bytes, 64u);
}

TEST(ServeProtocol, MalformedRequestsThrow) {
  EXPECT_THROW(serve::parse_request("not json"), Error);
  EXPECT_THROW(serve::parse_request("{\"op\":\"launch\"}"), Error);
  EXPECT_THROW(serve::parse_request("{\"op\":\"submit\"}"), Error)
      << "submit without a manifest";
  EXPECT_THROW(serve::parse_request("{\"op\":42}"), Error);
  EXPECT_THROW(serve::parse_request("[]"), Error);
}

// ---- daemon end-to-end -----------------------------------------------------

/// Short socket path: sun_path caps at ~107 bytes and gtest temp dirs can
/// be long, so sockets live under /tmp directly.
std::string fresh_socket_dir(const std::string& name) {
  const fs::path dir = fs::path("/tmp") / ("hlsprof_serve_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

const char* kManifest =
    "workload = vecadd\n"
    "n = 256\n"
    "threads = 2\n"
    "verify = on\n"
    "workers = 2\n"
    "label = serve-e2e\n";

/// What the daemon must reproduce byte-for-byte: a fresh direct run of
/// the same manifest, canonical JSON report.
std::string direct_report(const std::string& text) {
  runner::ManifestRun run = runner::parse_manifest(text);
  runner::BatchResult result = run.batch.run(run.options);
  runner::ReportOptions ro;
  ro.canonical = true;
  ro.label = run.label;
  return runner::report_json(result, ro);
}

TEST(ServeServer, MissingSocketThrowsConnectErrorNamingThePath) {
  const std::string sock =
      (fs::path(testing::TempDir()) / "hlsprof_no_such_daemon.sock").string();
  fs::remove(sock);
  try {
    serve::Client client(sock);
    FAIL() << "connect to a nonexistent socket must throw";
  } catch (const serve::ConnectError& e) {
    EXPECT_EQ(e.socket_path(), sock);
    EXPECT_EQ(e.saved_errno(), ENOENT);
    const std::string msg = e.what();
    EXPECT_NE(msg.find(sock), std::string::npos)
        << "message must name the socket path: " << msg;
    EXPECT_NE(msg.find("hlsprof-serve"), std::string::npos)
        << "message must say what to start: " << msg;
  }
}

TEST(ServeServer, StaleSocketFileThrowsConnectRefused) {
  // A socket file with no listener behind it (daemon died) is
  // ECONNREFUSED, reported distinctly from a missing file.
  const std::string sock =
      (fs::path(testing::TempDir()) / "hlsprof_stale_daemon.sock").string();
  fs::remove(sock);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(sock.size(), sizeof(addr.sun_path));
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", sock.c_str());
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ::close(fd);  // bound but never listened: file exists, nobody home

  try {
    serve::Client client(sock);
    FAIL() << "connect to a dead socket file must throw";
  } catch (const serve::ConnectError& e) {
    EXPECT_EQ(e.socket_path(), sock);
    EXPECT_EQ(e.saved_errno(), ECONNREFUSED);
    EXPECT_NE(std::string(e.what()).find("stale"), std::string::npos)
        << e.what();
  }
  fs::remove(sock);
}

TEST(ServeServer, LifecycleSubmitMetricsShutdown) {
  const std::string dir = fresh_socket_dir("lifecycle");
  // The reference run happens in this same process; do it before the
  // server exists (and zero the global registry) so the daemon's metrics
  // reflect only the daemon's own work.
  const std::string want = direct_report(kManifest);
  telemetry::Registry::global().reset_values();

  serve::ServerOptions options;
  options.socket_path = dir + "/d.sock";
  options.workers = 2;
  options.dispatchers = 2;
  options.cache_dir = dir + "/cache";
  serve::Server server(options);
  std::thread serving([&] { server.serve(); });

  {
    serve::Client client(options.socket_path);
    const serve::Response pong = client.ping(5);
    EXPECT_TRUE(pong.ok);
    EXPECT_EQ(pong.id, 5u);
    EXPECT_NE(pong.build.find("hlsprof"), std::string::npos);

    const serve::Response first = client.submit(kManifest, "t", 0, 1);
    ASSERT_TRUE(first.ok) << first.error << ": " << first.message;
    EXPECT_EQ(first.label, "serve-e2e");
    EXPECT_EQ(first.jobs, 1);
    EXPECT_EQ(first.ok_jobs, 1);
    EXPECT_EQ(first.report, want) << "daemon report must be byte-identical "
                                     "to hlsprof-run's canonical output";
    EXPECT_NE(first.telemetry.find("hlsprof-telemetry"), std::string::npos);

    // Warm resubmit: same bytes again (the shared cache must not leak
    // into the canonical report).
    const serve::Response warm = client.submit(kManifest, "t", 0, 2);
    ASSERT_TRUE(warm.ok);
    EXPECT_EQ(warm.report, want);

    const serve::Response metrics = client.metrics(3);
    ASSERT_TRUE(metrics.ok);
    EXPECT_NE(metrics.metrics.find("\"hlsprof-telemetry\""),
              std::string::npos);
    // One unique design across both submits: single-flight + the shared
    // cache mean exactly one compile ever happened.
    EXPECT_NE(metrics.metrics.find("\"hls.compiles\":{\"value\":1}"),
              std::string::npos)
        << metrics.metrics;

    const serve::Response bye = client.shutdown(4);
    EXPECT_TRUE(bye.ok);
    EXPECT_TRUE(bye.draining);
  }

  serving.join();
  EXPECT_FALSE(fs::exists(options.socket_path))
      << "drain must remove the socket file";
  fs::remove_all(dir);
}

TEST(ServeServer, WatchStreamsOneProgressEventPerJob) {
  const std::string dir = fresh_socket_dir("watch");
  const std::string manifest =
      "workload = vecadd\nn = 128,256\nthreads = 2\nlabel = watch\n";
  const std::string want = direct_report(manifest);

  serve::ServerOptions options;
  options.socket_path = dir + "/d.sock";
  options.workers = 2;
  serve::Server server(options);
  std::thread serving([&] { server.serve(); });
  {
    serve::Client client(options.socket_path);
    std::vector<runner::ProgressEvent> events;
    const serve::Response r = client.submit_watch(
        manifest,
        [&events](const serve::Response& ev) {
          EXPECT_EQ(ev.id, 9u);
          events.push_back(ev.progress);
        },
        "w", 0, 9);
    ASSERT_TRUE(r.ok) << r.error << ": " << r.message;
    EXPECT_EQ(r.report, want) << "watching must not change the report";
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events.back().done, 2);
    std::vector<int> indices;
    for (const runner::ProgressEvent& e : events) {
      EXPECT_EQ(e.jobs, 2);
      EXPECT_EQ(e.job.status, runner::JobStatus::ok);
      EXPECT_GT(e.job.timeline_cycles, 0u);
      EXPECT_EQ(e.job.num_threads, 2);
      indices.push_back(e.job.index);
    }
    std::sort(indices.begin(), indices.end());
    EXPECT_EQ(indices, (std::vector<int>{0, 1}));
    // The events carry the report's job records: rebuilt from them alone,
    // the report is byte-identical.
    runner::BatchResult rebuilt;
    rebuilt.jobs = {events[0].job, events[1].job};
    std::sort(rebuilt.jobs.begin(), rebuilt.jobs.end(),
              [](const runner::JobResult& a, const runner::JobResult& b) {
                return a.index < b.index;
              });
    runner::rebase_cache_stats(rebuilt);
    runner::ReportOptions ro;
    ro.canonical = true;
    ro.label = "watch";
    EXPECT_EQ(runner::report_json(rebuilt, ro), want);
    client.shutdown();
  }
  serving.join();
  fs::remove_all(dir);
}

TEST(ServeServer, ConcurrentClientsGetByteIdenticalReports) {
  const std::string dir = fresh_socket_dir("concurrent");
  serve::ServerOptions options;
  options.socket_path = dir + "/d.sock";
  options.workers = 2;
  options.dispatchers = 3;
  serve::Server server(options);
  std::thread serving([&] { server.serve(); });

  const std::string want = direct_report(kManifest);
  std::vector<std::string> got(3);
  std::vector<std::thread> clients;
  for (int i = 0; i < 3; ++i) {
    clients.emplace_back([&, i] {
      serve::Client client(options.socket_path);
      const serve::Response r =
          client.submit(kManifest, "client-" + std::to_string(i));
      if (r.ok) got[std::size_t(i)] = r.report;
    });
  }
  for (auto& t : clients) t.join();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(got[std::size_t(i)], want) << "client " << i;
  }

  server.request_drain();
  serving.join();
  fs::remove_all(dir);
}

TEST(ServeServer, QueueFullIsAStructuredErrorNotADrop) {
  const std::string dir = fresh_socket_dir("full");
  serve::ServerOptions options;
  options.socket_path = dir + "/d.sock";
  options.workers = 1;
  options.dispatchers = 1;
  // Nothing may wait: every submit is rejected before it reaches the
  // pool, deterministically, with the machine-readable reason.
  options.admission.queue_capacity = 0;
  serve::Server server(options);
  std::thread serving([&] { server.serve(); });

  {
    serve::Client client(options.socket_path);
    const serve::Response r = client.submit(kManifest, "burst", 0, 11);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.id, 11u);
    EXPECT_EQ(r.error, "queue_full");
    EXPECT_FALSE(r.message.empty());
    // The connection survives a rejection: an inline op still answers.
    EXPECT_TRUE(client.ping().ok);
  }

  server.request_drain();
  serving.join();
  fs::remove_all(dir);
}

TEST(ServeServer, BadManifestAnswersManifestError) {
  const std::string dir = fresh_socket_dir("badmanifest");
  serve::ServerOptions options;
  options.socket_path = dir + "/d.sock";
  options.workers = 1;
  serve::Server server(options);
  std::thread serving([&] { server.serve(); });

  {
    serve::Client client(options.socket_path);
    const serve::Response r =
        client.submit("workload = blastoff\n", "t", 0, 1);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error, "manifest_error");
    EXPECT_NE(r.message.find("blastoff"), std::string::npos);
  }

  server.request_drain();
  serving.join();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hlsprof
