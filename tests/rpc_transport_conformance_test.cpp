// Transport conformance suite: one battery, every message plane. The
// `Transport` contract (transport.hpp) is what the cluster layer programs
// against; this suite runs the identical assertions over InprocTransport and
// TcpTransport so the planes cannot drift apart. `ctest -L transport`.
//
// Scenarios: round-trip across body sizes, concurrent calls with payload
// verification, oversized-frame rejection (transport stays usable),
// deadline-style expiry (a late response is still delivered), endpoint
// shutdown with calls queued mid-flight (queued calls fail Unavailable —
// the regression for the inproc shutdown race), unknown endpoints, error
// passthrough, stats accounting, and trace-context propagation.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/trace.hpp"
#include "rpc/tcp_transport.hpp"
#include "rpc/transport.hpp"

namespace vdb {
namespace {

// Both factories build a transport whose locally registered endpoints are
// callable through its own client surface; for TCP that self-call crosses the
// real wire (loopback through the listen socket, framing and CRCs included).
struct TransportFactory {
  std::string name;
  std::function<std::unique_ptr<Transport>(std::size_t max_body_bytes)> make;
};

std::unique_ptr<Transport> MakeTcp(std::size_t max_body_bytes) {
  TcpTransportOptions options;
  options.max_body_bytes = max_body_bytes;
  auto transport = TcpTransport::Start(options);
  EXPECT_TRUE(transport.ok()) << transport.status().message();
  return transport.ok() ? std::move(*transport) : nullptr;
}

class TransportConformanceTest
    : public ::testing::TestWithParam<TransportFactory> {
 protected:
  std::unique_ptr<Transport> Make(
      std::size_t max_body_bytes = kDefaultMaxBodyBytes) {
    auto transport = GetParam().make(max_body_bytes);
    EXPECT_NE(transport, nullptr);
    return transport;
  }
};

Message EchoHandler(const Message& request) {
  Message response = request;
  response.type = MessageType::kInfoResponse;
  return response;
}

Message MakeRequest(std::size_t body_bytes, std::uint8_t fill) {
  Message request;
  request.type = MessageType::kInfoRequest;
  request.body = rpc::Buffer::Allocate(body_bytes);
  if (body_bytes > 0) std::memset(request.body.MutableData(), fill, body_bytes);
  return request;
}

TEST_P(TransportConformanceTest, RoundTripPreservesEveryBodySize) {
  auto transport = Make();
  ASSERT_TRUE(transport->RegisterEndpoint("echo", EchoHandler).ok());
  for (const std::size_t body_bytes : {std::size_t{0}, std::size_t{1},
                                       std::size_t{4096}, std::size_t{1} << 20}) {
    const Message request = MakeRequest(body_bytes, 0x5A);
    const Message response = transport->Call("echo", request);
    ASSERT_TRUE(MessageToStatus(response).ok())
        << "body=" << body_bytes << ": " << MessageToStatus(response).message();
    EXPECT_EQ(response.type, MessageType::kInfoResponse);
    ASSERT_EQ(response.body.size(), body_bytes);
    if (body_bytes > 0) {
      EXPECT_EQ(std::memcmp(response.body.data(), request.body.data(), body_bytes), 0);
    }
  }
}

TEST_P(TransportConformanceTest, ConcurrentCallsGetTheirOwnResponses) {
  auto transport = Make();
  ASSERT_TRUE(transport
                  ->RegisterEndpoint("echo", EchoHandler, /*service_threads=*/4)
                  .ok());
  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 25;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        const auto fill = static_cast<std::uint8_t>(t * kCallsPerThread + i);
        const std::size_t body_bytes = 64 + fill;
        const Message response =
            transport->Call("echo", MakeRequest(body_bytes, fill));
        if (!MessageToStatus(response).ok() ||
            response.body.size() != body_bytes ||
            response.body.data()[0] != fill ||
            response.body.data()[body_bytes - 1] != fill) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Every caller must get back exactly the payload it sent: responses are
  // matched to requests by id, never by arrival order.
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_P(TransportConformanceTest, OversizedBodyRejectedAndTransportStaysUsable) {
  constexpr std::size_t kLimit = 1 << 16;
  auto transport = Make(kLimit);
  ASSERT_TRUE(transport->RegisterEndpoint("echo", EchoHandler).ok());
  EXPECT_EQ(transport->MaxBodyBytes(), kLimit);

  const Message rejected = transport->Call("echo", MakeRequest(kLimit + 1, 1));
  EXPECT_EQ(MessageToStatus(rejected).code(), StatusCode::kResourceExhausted);

  // The oversized call must not have wedged or poisoned anything.
  const Message ok = transport->Call("echo", MakeRequest(kLimit / 2, 2));
  EXPECT_TRUE(MessageToStatus(ok).ok()) << MessageToStatus(ok).message();
}

TEST_P(TransportConformanceTest, UnknownEndpointIsUnavailable) {
  auto transport = Make();
  const Message response =
      transport->Call("ghost", Message{MessageType::kInfoRequest, {}});
  EXPECT_EQ(MessageToStatus(response).code(), StatusCode::kUnavailable);
}

TEST_P(TransportConformanceTest, HandlerErrorsPassThroughVerbatim) {
  auto transport = Make();
  ASSERT_TRUE(transport
                  ->RegisterEndpoint("failing",
                                     [](const Message&) {
                                       return EncodeErrorResponse(
                                           Status::NotFound("no such point"));
                                     })
                  .ok());
  const Status status = MessageToStatus(
      transport->Call("failing", Message{MessageType::kInfoRequest, {}}));
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_NE(status.message().find("no such point"), std::string::npos);
}

TEST_P(TransportConformanceTest, DeadlineExpiryDoesNotLoseTheLateResponse) {
  // Callers enforce deadlines with future.wait_for; the contract is that the
  // transport still resolves the future afterwards (no leaked promise), so a
  // caller that gave up and a transport that answered late never deadlock.
  auto transport = Make();
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  ASSERT_TRUE(transport
                  ->RegisterEndpoint("slow",
                                     [&](const Message& request) {
                                       std::unique_lock<std::mutex> lock(mutex);
                                       cv.wait(lock, [&] { return release; });
                                       return EchoHandler(request);
                                     })
                  .ok());
  auto future = transport->CallAsync("slow", MakeRequest(16, 3));
  EXPECT_EQ(future.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  const Message response = future.get();
  EXPECT_TRUE(MessageToStatus(response).ok());
  EXPECT_EQ(response.body.size(), 16u);
}

TEST_P(TransportConformanceTest, UnregisterFailsQueuedCallsWithoutHanging) {
  // The shutdown-race regression: calls queued behind a busy single service
  // thread when the endpoint is unregistered must fail Unavailable — under
  // the old drain-the-queue shutdown they were silently abandoned and their
  // futures hung forever. The in-flight handler still completes.
  auto transport = Make();
  std::mutex mutex;
  std::condition_variable cv;
  bool handler_entered = false;
  bool release = false;
  ASSERT_TRUE(transport
                  ->RegisterEndpoint(
                      "busy",
                      [&](const Message& request) {
                        {
                          std::lock_guard<std::mutex> lock(mutex);
                          handler_entered = true;
                        }
                        cv.notify_all();
                        std::unique_lock<std::mutex> lock(mutex);
                        cv.wait(lock, [&] { return release; });
                        return EchoHandler(request);
                      },
                      /*service_threads=*/1)
                  .ok());

  auto running = transport->CallAsync("busy", MakeRequest(8, 1));
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return handler_entered; });
  }
  // These sit in the endpoint queue behind the blocked handler.
  std::vector<std::future<Message>> queued;
  for (int i = 0; i < 6; ++i) {
    queued.push_back(transport->CallAsync("busy", MakeRequest(8, 2)));
  }

  std::thread unregister_thread(
      [&] { EXPECT_TRUE(transport->UnregisterEndpoint("busy").ok()); });
  // Unregister drains the queue (failing the queued calls) before it joins
  // the blocked service thread, so every queued future must resolve while
  // the handler is still held — waiting here before releasing makes the
  // ordering deterministic instead of racing the drain against the handler.
  for (auto& future : queued) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
        << "queued call hung across UnregisterEndpoint";
    EXPECT_EQ(MessageToStatus(future.get()).code(), StatusCode::kUnavailable);
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  unregister_thread.join();

  // The running call finished normally.
  ASSERT_EQ(running.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_TRUE(MessageToStatus(running.get()).ok());
  EXPECT_FALSE(transport->HasEndpoint("busy"));

  // Calls after the unregister are cleanly Unavailable too.
  EXPECT_EQ(MessageToStatus(transport->Call("busy", MakeRequest(8, 3))).code(),
            StatusCode::kUnavailable);
}

TEST_P(TransportConformanceTest, DestructionResolvesEveryOutstandingFuture) {
  // Tear the transport down with calls still in flight: the contract says
  // every future resolves — with the response if the handler ran, otherwise
  // with Unavailable. Nothing may hang or crash.
  std::vector<std::future<Message>> futures;
  {
    auto transport = Make();
    ASSERT_TRUE(transport
                    ->RegisterEndpoint("work",
                                       [](const Message& request) {
                                         std::this_thread::sleep_for(
                                             std::chrono::milliseconds(2));
                                         return EchoHandler(request);
                                       })
                    .ok());
    for (int i = 0; i < 16; ++i) {
      futures.push_back(transport->CallAsync("work", MakeRequest(32, 4)));
    }
  }
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    const Status status = MessageToStatus(future.get());
    EXPECT_TRUE(status.ok() || status.code() == StatusCode::kUnavailable)
        << status.message();
  }
}

TEST_P(TransportConformanceTest, StatsCountEveryCallAndEveryByte) {
  auto transport = Make();
  ASSERT_TRUE(transport->RegisterEndpoint("echo", EchoHandler).ok());
  constexpr std::size_t kBody = 1000;
  (void)transport->Call("echo", MakeRequest(kBody, 5));
  (void)transport->Call("echo", MakeRequest(kBody, 6));
  const TransportStats stats = transport->Stats();
  EXPECT_EQ(stats.calls, 2u);
  EXPECT_GE(stats.bytes_sent, 2 * kBody);
  EXPECT_GE(stats.bytes_received, 2 * kBody);
}

TEST_P(TransportConformanceTest, FaultPlanFailRejectsWithUnavailable) {
  auto transport = Make();
  ASSERT_TRUE(transport->RegisterEndpoint("echo", EchoHandler).ok());
  auto plan = std::make_shared<faults::FaultPlan>(/*seed=*/7);
  plan->AddRule({.site_prefix = "rpc/echo", .kind = faults::FaultKind::kFail});
  transport->SetFaultPlan(plan);
  EXPECT_EQ(MessageToStatus(transport->Call("echo", MakeRequest(8, 7))).code(),
            StatusCode::kUnavailable);
  // Clearing the plan restores service.
  transport->SetFaultPlan(nullptr);
  EXPECT_TRUE(MessageToStatus(transport->Call("echo", MakeRequest(8, 8))).ok());
}

TEST_P(TransportConformanceTest, TraceContextReachesTheHandler) {
  auto transport = Make();
  std::atomic<std::uint64_t> handler_trace{0};
  ASSERT_TRUE(transport
                  ->RegisterEndpoint("traced",
                                     [&](const Message& request) {
                                       handler_trace =
                                           obs::CurrentTraceContext().trace_id;
                                       return EchoHandler(request);
                                     })
                  .ok());
  const std::uint64_t trace_id = obs::NewTraceId();
  {
    obs::TraceScope scope(trace_id);
    (void)transport->Call("traced", MakeRequest(8, 9));
  }
  EXPECT_EQ(handler_trace.load(), trace_id);
}

// gtest_discover_tests appends gtest's byte dump of each TransportFactory to
// the CTest name, and that dump starts with a heap address whose second byte
// ASLR changes on every discovery. Test names of 26+ characters keep that byte
// out of the first 100 characters of the name, so the prefix is stable.
INSTANTIATE_TEST_SUITE_P(
    AllPlanes, TransportConformanceTest,
    ::testing::Values(
        TransportFactory{"Inproc",
                         [](std::size_t max_body_bytes) -> std::unique_ptr<Transport> {
                           return std::make_unique<InprocTransport>(max_body_bytes);
                         }},
        TransportFactory{"Tcp", MakeTcp}),
    [](const ::testing::TestParamInfo<TransportFactory>& info) {
      return info.param.name;
    });

// ---- TCP-only wire behavior -------------------------------------------------

TEST(TcpTransportTest, CrossTransportCallViaRoute) {
  // Two transports, two "processes": the client routes the endpoint name to
  // the server's address and the call crosses a real socket pair.
  auto server = TcpTransport::Start(TcpTransportOptions{});
  ASSERT_TRUE(server.ok()) << server.status().message();
  ASSERT_TRUE((*server)->RegisterEndpoint("echo", EchoHandler).ok());

  auto client = TcpTransport::Start(TcpTransportOptions{});
  ASSERT_TRUE(client.ok()) << client.status().message();
  (*client)->AddRoute("echo", (*server)->Address());

  const Message response = (*client)->Call("echo", MakeRequest(512, 0xAB));
  ASSERT_TRUE(MessageToStatus(response).ok()) << MessageToStatus(response).message();
  EXPECT_EQ(response.body.size(), 512u);
  EXPECT_EQ((*client)->WireStats().connects, 1u);
  EXPECT_GE((*server)->WireStats().accepts, 1u);
}

TEST(TcpTransportTest, PeerDeathFailsPendingAndReconnectRestoresService) {
  auto client = TcpTransport::Start(TcpTransportOptions{});
  ASSERT_TRUE(client.ok());

  std::string address;
  {
    auto server = TcpTransport::Start(TcpTransportOptions{});
    ASSERT_TRUE(server.ok());
    ASSERT_TRUE((*server)->RegisterEndpoint("echo", EchoHandler).ok());
    address = (*server)->Address();
    (*client)->AddRoute("echo", address);
    ASSERT_TRUE(MessageToStatus((*client)->Call("echo", MakeRequest(8, 1))).ok());
    // Server dies here (destructor closes the listen socket and every conn).
  }

  // Calls against the dead peer fail Unavailable — refused connect or
  // dropped connection, never a hang.
  const Status dead = MessageToStatus((*client)->Call("echo", MakeRequest(8, 2)));
  EXPECT_EQ(dead.code(), StatusCode::kUnavailable) << dead.message();

  // A replacement listening on a fresh port restores service through the
  // same client after re-routing (the paper's restart-the-worker story).
  auto revived = TcpTransport::Start(TcpTransportOptions{});
  ASSERT_TRUE(revived.ok());
  ASSERT_TRUE((*revived)->RegisterEndpoint("echo", EchoHandler).ok());
  (*client)->AddRoute("echo", (*revived)->Address());
  for (int attempt = 0;; ++attempt) {
    const Status status =
        MessageToStatus((*client)->Call("echo", MakeRequest(8, 3)));
    if (status.ok()) break;
    ASSERT_LT(attempt, 200) << status.message();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE((*client)->WireStats().reconnects, 1u);
}

TEST(TcpTransportTest, CorruptFaultIsDetectedByReceiverCrc) {
  auto server = TcpTransport::Start(TcpTransportOptions{});
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->RegisterEndpoint("echo", EchoHandler).ok());

  auto client = TcpTransport::Start(TcpTransportOptions{});
  ASSERT_TRUE(client.ok());
  (*client)->AddRoute("echo", (*server)->Address());

  auto plan = std::make_shared<faults::FaultPlan>(/*seed=*/3);
  plan->AddRule({.site_prefix = "rpc/echo",
                 .kind = faults::FaultKind::kCorrupt,
                 .max_triggers_per_site = 1});
  (*client)->SetFaultPlan(plan);

  // The corrupted frame reaches the server, fails its CRC, and the server
  // drops the connection; the pending call surfaces Unavailable.
  const Status corrupted =
      MessageToStatus((*client)->Call("echo", MakeRequest(256, 0xCC)));
  EXPECT_EQ(corrupted.code(), StatusCode::kUnavailable) << corrupted.message();

  // Wait until the server has actually registered the decode error (the drop
  // races the client-side failure) then confirm reconnect + clean service.
  for (int attempt = 0; (*server)->WireStats().decode_errors == 0; ++attempt) {
    ASSERT_LT(attempt, 500);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (int attempt = 0;; ++attempt) {
    const Status status =
        MessageToStatus((*client)->Call("echo", MakeRequest(256, 0xCD)));
    if (status.ok()) break;
    ASSERT_LT(attempt, 200) << status.message();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE((*server)->WireStats().decode_errors, 1u);
  EXPECT_GE((*client)->WireStats().reconnects, 1u);
}

TEST(TcpTransportTest, SendQueueLimitSurfacesResourceExhausted) {
  // Route to a socket that listens but never accepts or reads, with a tiny
  // receive buffer: the kernel absorbs a few KB and then frames pile up in
  // the client's per-peer send queue until the cap rejects new calls.
  const int sink_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(sink_fd, 0);
  const int tiny = 4096;
  setsockopt(sink_fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(sink_fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(sink_fd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(getsockname(sink_fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::string sink_address =
      "127.0.0.1:" + std::to_string(ntohs(addr.sin_port));

  std::vector<std::future<Message>> futures;
  bool saw_backpressure = false;
  {
    TcpTransportOptions options;
    options.send_queue_limit_bytes = 256 << 10;
    auto client = TcpTransport::Start(options);
    ASSERT_TRUE(client.ok());
    (*client)->AddRoute("sink", sink_address);

    // 64 x 64 KiB = 4 MiB offered against a ~4 KiB sink: the cap must trip.
    for (int i = 0; i < 64 && !saw_backpressure; ++i) {
      futures.push_back((*client)->CallAsync("sink", MakeRequest(64 << 10, 1)));
      if (futures.back().wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        const Status status = MessageToStatus(futures.back().get());
        futures.pop_back();
        if (status.code() == StatusCode::kResourceExhausted) {
          saw_backpressure = true;
        }
      }
    }
    // Destroying the client fails everything still queued with Unavailable.
  }
  EXPECT_TRUE(saw_backpressure);
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
        << "queued call not resolved by transport destruction";
    const Status status = MessageToStatus(future.get());
    EXPECT_FALSE(status.ok());
  }
  ::close(sink_fd);
}

}  // namespace
}  // namespace vdb
