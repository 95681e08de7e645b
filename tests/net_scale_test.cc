// Connection-scale behaviour of the event-driven server (labelled
// `net_scale`; also part of the verify.sh --tsan lane):
//
//   - thousands of simultaneously live idle sockets must cost (nearly)
//     nothing: queries on other connections still meet their deadlines,
//   - the event-loop timer reaps idle connections (idle_timeout_ms) and
//     sockets that never complete a handshake (handshake_timeout_ms),
//   - a reader slower than write_buffer_cap is disconnected instead of
//     buffering the server into the ground,
//   - a full run queue answers a typed kOverloaded + retry-after straight
//     from the event loop, and the connection remains usable afterwards,
//   - ServerStatsSnapshot gives one coherent read of the gauges, and the
//     reactor gauges it reports survive Stop() without being re-counted.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/driver.h"
#include "common/query_context.h"
#include "crypto/drbg.h"
#include "fault/fault.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket_transport.h"
#include "server/database.h"

#if defined(__SANITIZE_THREAD__)
#define AEDB_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define AEDB_TSAN 1
#endif
#endif

namespace aedb {
namespace {

using client::Driver;
using client::DriverOptions;
using types::Value;
using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Under TSan every instrumented round trip costs ~an order of magnitude
// more; keep the semantics (many live sockets) but shrink the herd.
#ifdef AEDB_TSAN
constexpr size_t kIdleHerd = 256;
#else
constexpr size_t kIdleHerd = 2000;
#endif

/// Raises RLIMIT_NOFILE to at least `need` fds if the hard limit allows.
/// Returns false when the environment simply cannot host the test.
bool EnsureFdBudget(rlim_t need) {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return false;
  if (rl.rlim_cur >= need) return true;
  rlimit want = rl;
  want.rlim_cur = rl.rlim_max == RLIM_INFINITY
                      ? need
                      : std::min<rlim_t>(need, rl.rlim_max);
  (void)::setrlimit(RLIMIT_NOFILE, &want);
  return ::getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur >= need;
}

/// Minimal blocking client speaking raw frames (handshake + ping only).
class RawConn {
 public:
  explicit RawConn(uint16_t port, int recv_timeout_sec = 8) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    timeval tv{recv_timeout_sec, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~RawConn() { Close(); }
  RawConn(RawConn&& o) noexcept
      : fd_(o.fd_), connected_(o.connected_) {
    o.fd_ = -1;
    o.connected_ = false;
  }

  bool connected() const { return connected_; }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  int fd() const { return fd_; }

  bool Send(Slice data) {
    size_t sent = 0;
    while (sent < data.size()) {
      ssize_t w =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (w <= 0) return false;
      sent += static_cast<size_t>(w);
    }
    return true;
  }

  bool ReadFrame(net::MsgType* type, Bytes* payload) {
    Bytes header(net::kFrameHeaderSize);
    if (!ReadFull(header.data(), header.size())) return false;
    auto h = net::DecodeFrameHeader(header, net::kDefaultMaxPayload);
    if (!h.ok()) return false;
    payload->resize(h->payload_size);
    if (h->payload_size > 0 && !ReadFull(payload->data(), payload->size())) {
      return false;
    }
    *type = h->type;
    return true;
  }

  bool Handshake() {
    net::HandshakeReq req;
    if (!Send(net::EncodeFrame(net::MsgType::kHandshake, req.Encode()))) {
      return false;
    }
    net::MsgType type;
    Bytes payload;
    return ReadFrame(&type, &payload) && type == net::MsgType::kHandshakeAck;
  }

  bool Ping() {
    if (!Send(net::EncodeFrame(net::MsgType::kPing,
                               Slice(std::string_view("sc"))))) {
      return false;
    }
    net::MsgType type;
    Bytes payload;
    return ReadFrame(&type, &payload) && type == net::MsgType::kPong;
  }

  /// True when the server closes the stream (optionally after data we
  /// discard); false on recv timeout.
  bool DrainToEof() {
    uint8_t buf[4096];
    for (;;) {
      ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
      if (r == 0) return true;
      if (r < 0) return false;
    }
  }

 private:
  bool ReadFull(uint8_t* buf, size_t n) {
    size_t got = 0;
    while (got < n) {
      ssize_t r = ::recv(fd_, buf + got, n - got, 0);
      if (r <= 0) return false;
      got += static_cast<size_t>(r);
    }
    return true;
  }

  int fd_ = -1;
  bool connected_ = false;
};

class NetScaleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FaultRegistry::Global().Reset();
    crypto::HmacDrbg drbg(crypto::SecureRandom(48),
                          Slice(std::string_view("net-scale-author")));
    author_key_ = crypto::GenerateRsaKey(1024, &drbg);
    image_ = enclave::EnclaveImage::MakeEsImage(1, author_key_);
    hgs_ = std::make_unique<attestation::HostGuardianService>();
  }

  void TearDown() override {
    if (server_) server_->Stop();
    fault::FaultRegistry::Global().DisarmAll();
  }

  std::unique_ptr<server::Database> MakeDb(server::ServerOptions opts = {}) {
    auto db = std::make_unique<server::Database>(opts, hgs_.get(), &image_);
    hgs_->RegisterTcgLog(db->platform()->tcg_log());
    return db;
  }

  void StartServer(server::Database* db, net::ServerConfig config) {
    server_ = std::make_unique<net::Server>(db, config);
    ASSERT_TRUE(server_->Start().ok());
  }

  std::unique_ptr<Driver> MakeSocketDriver(uint32_t deadline_ms = 0) {
    net::SocketTransport::Options topts;
    topts.port = server_->port();
    topts.timeout_ms = 10'000;
    auto transport = net::SocketTransport::Connect(topts);
    if (!transport.ok()) return nullptr;
    DriverOptions dopts;
    dopts.enclave_policy.trusted_author_id = image_.AuthorId();
    dopts.deadline_ms = deadline_ms;
    return std::make_unique<Driver>(std::move(transport).value(), &registry_,
                                    hgs_->signing_public(), dopts);
  }

  /// Polls the live-connection gauge until it reaches `expect` or ~5 s pass.
  bool WaitActive(uint64_t expect) {
    for (int i = 0; i < 250; ++i) {
      if (server_->SnapshotStats().connections_active == expect) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

  crypto::RsaPrivateKey author_key_;
  enclave::EnclaveImage image_;
  std::unique_ptr<attestation::HostGuardianService> hgs_;
  keys::KeyProviderRegistry registry_;
  std::unique_ptr<net::Server> server_;
};

// ===========================================================================
// Scale: thousands of live idle sockets
// ===========================================================================

TEST_F(NetScaleTest, ThousandsOfIdleSocketsDontStarveActiveQueries) {
  if (!EnsureFdBudget(kIdleHerd + 512)) {
    GTEST_SKIP() << "RLIMIT_NOFILE too low for " << kIdleHerd << " sockets";
  }
  auto db = MakeDb();
  ASSERT_TRUE(db->ExecuteDdl("CREATE TABLE T (a INT NOT NULL, b INT)").ok());
  ASSERT_TRUE(db->ExecuteDdl("CREATE INDEX T_A ON T (a)").ok());
  for (int i = 0; i < 8; ++i) {
    auto r = db->Execute("INSERT INTO T (a, b) VALUES (@a, @b)",
                         {Value::Int32(i), Value::Int32(2 * i)});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  net::ServerConfig config;
  config.backlog = 1024;
  StartServer(db.get(), config);

  // A herd of handshaken-then-silent connections. Each costs the server one
  // fd + one epoll registration + a Connection object — no thread.
  std::vector<RawConn> herd;
  herd.reserve(kIdleHerd);
  for (size_t i = 0; i < kIdleHerd; ++i) {
    herd.emplace_back(server_->port());
    ASSERT_TRUE(herd.back().connected()) << "connect #" << i;
    ASSERT_TRUE(herd.back().Handshake()) << "handshake #" << i;
  }
  EXPECT_GE(server_->SnapshotStats().connections_active, kIdleHerd);

  // With the herd parked, a working client must still meet tight deadlines:
  // the sockets are live, the event loop just has nothing to do for them.
  auto driver = MakeSocketDriver(/*deadline_ms=*/2000);
  ASSERT_NE(driver, nullptr);
  double worst_ms = 0;
  for (int i = 0; i < 25; ++i) {
    auto t0 = Clock::now();
    auto r = driver->Query("SELECT b FROM T WHERE a = " + std::to_string(i % 8));
    double ms = ElapsedMs(t0);
    worst_ms = std::max(worst_ms, ms);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->rows.size(), 1u);
    EXPECT_EQ(r->rows[0][0].i32(), 2 * (i % 8)) << "wrong result under scale";
  }
  EXPECT_LT(worst_ms, 2000.0) << "deadline blown with an idle herd attached";

  // The herd can still be spoken to (spot check — they were never reaped).
  ASSERT_TRUE(herd.front().Ping());
  ASSERT_TRUE(herd.back().Ping());

  // Mass disconnect: the gauge must come back down (EOF reaping at scale).
  for (auto& c : herd) c.Close();
  EXPECT_TRUE(WaitActive(1)) << "live-connection gauge stuck at "
                             << server_->SnapshotStats().connections_active;

  auto snap = server_->SnapshotStats();
  EXPECT_GE(snap.connections_accepted, kIdleHerd + 1);
  EXPECT_GT(snap.epoll_wakeups, 0u);
  EXPECT_EQ(snap.protocol_errors, 0u);
}

// Stop() latches the event loops' wakeup count; it must not add the loops'
// totals on top of a value an earlier snapshot already read. The close-all
// task Stop() posts may wake each loop a few more times, nothing like twice.
TEST_F(NetScaleTest, EpollWakeupsAreNotRecountedAtStop) {
  auto db = MakeDb();
  StartServer(db.get(), net::ServerConfig{});
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  ASSERT_TRUE(conn.Handshake());
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(conn.Ping()) << "ping #" << i;

  const uint64_t w1 = server_->SnapshotStats().epoll_wakeups;
  ASSERT_GE(w1, 100u);
  server_->Stop();
  const uint64_t w2 = server_->SnapshotStats().epoll_wakeups;
  EXPECT_LE(w1, w2);
  EXPECT_LT(w2, 2 * w1) << "wakeups re-counted at Stop (W1=" << w1
                        << ", W2=" << w2 << ")";
}

// ===========================================================================
// Event-loop timer: idle reaping and handshake timeouts
// ===========================================================================

TEST_F(NetScaleTest, IdleConnectionsAreReapedAfterIdleTimeout) {
  auto db = MakeDb();
  net::ServerConfig config;
  config.idle_timeout_ms = 300;
  StartServer(db.get(), config);

  std::vector<RawConn> conns;
  for (int i = 0; i < 5; ++i) {
    conns.emplace_back(server_->port());
    ASSERT_TRUE(conns.back().connected());
    ASSERT_TRUE(conns.back().Handshake());
  }
  // Handshaken then silent: the sweep must cut each one (clean EOF, no RST).
  for (auto& c : conns) {
    EXPECT_TRUE(c.DrainToEof()) << "idle connection not reaped";
  }
  EXPECT_TRUE(WaitActive(0));
  EXPECT_GE(server_->SnapshotStats().idle_reaps, 5u);
  EXPECT_EQ(server_->SnapshotStats().protocol_errors, 0u)
      << "idle reap misclassified as a protocol error";
}

TEST_F(NetScaleTest, ActivityDefersIdleReaping) {
  auto db = MakeDb();
  net::ServerConfig config;
  config.idle_timeout_ms = 600;
  StartServer(db.get(), config);

  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  ASSERT_TRUE(conn.Handshake());
  // Keep touching the connection at half the idle budget: it must survive
  // well past several multiples of idle_timeout_ms.
  auto t0 = Clock::now();
  while (ElapsedMs(t0) < 1800.0) {
    ASSERT_TRUE(conn.Ping()) << "active connection reaped as idle";
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  }
  EXPECT_EQ(server_->SnapshotStats().idle_reaps, 0u);
}

TEST_F(NetScaleTest, SilentSocketsAreReapedAtHandshakeTimeout) {
  auto db = MakeDb();
  net::ServerConfig config;
  config.handshake_timeout_ms = 300;
  StartServer(db.get(), config);

  // Four sockets that connect and say nothing — the cheapest thing a
  // misbehaving client can hoard — plus one that handshakes promptly.
  std::vector<RawConn> silent;
  for (int i = 0; i < 4; ++i) {
    silent.emplace_back(server_->port());
    ASSERT_TRUE(silent.back().connected());
  }
  RawConn polite(server_->port());
  ASSERT_TRUE(polite.connected());
  ASSERT_TRUE(polite.Handshake());

  for (auto& c : silent) {
    EXPECT_TRUE(c.DrainToEof()) << "pre-handshake socket never reaped";
  }
  EXPECT_GE(server_->SnapshotStats().handshake_timeouts, 4u);
  // The handshaken connection outlives the handshake deadline by design.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_TRUE(polite.Ping());
}

// ===========================================================================
// Slow readers and run-queue shedding
// ===========================================================================

TEST_F(NetScaleTest, SlowReaderIsDisconnectedAtWriteBufferCap) {
  auto db = MakeDb();
  net::ServerConfig config;
  config.write_buffer_cap = 64 * 1024;
  StartServer(db.get(), config);

  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  ASSERT_TRUE(conn.Handshake());

  // Ask for a 16 MiB echo and never read it. The kernel buffers what it
  // will; the server may buffer write_buffer_cap more — then it must cut
  // the connection instead of holding megabytes hostage for a dead reader.
  Bytes big(16u << 20, 0x5A);
  ASSERT_TRUE(conn.Send(net::EncodeFrame(net::MsgType::kPing, big)));
  auto t0 = Clock::now();
  bool cut = false;
  while (ElapsedMs(t0) < 8000.0) {
    if (server_->SnapshotStats().slow_reader_disconnects >= 1) {
      cut = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(cut) << "slow reader never disconnected";
  EXPECT_TRUE(WaitActive(0));
}

TEST_F(NetScaleTest, FullRunQueueShedsTypedFromTheEventLoop) {
  auto db = MakeDb();
  net::ServerConfig config;
  config.exec_threads = 1;
  config.max_exec_threads = 1;  // no elastic growth: queue pressure is real
  config.run_queue_depth = 1;
  config.overload_retry_after_ms = 7;
  StartServer(db.get(), config);

  RawConn a(server_->port()), b(server_->port()), c(server_->port());
  for (RawConn* conn : {&a, &b, &c}) {
    ASSERT_TRUE(conn->connected());
    ASSERT_TRUE(conn->Handshake());
  }

  net::MsgType type;
  Bytes payload;
  {
    // Every response now sleeps 400 ms on the (single) worker.
    fault::FaultSpec slow = fault::FaultSpec::Always(Status::OK());
    slow.arg = 400;
    fault::ScopedFault scoped("net/delay_response", slow);

    // a occupies the worker; b fills the one queue slot; c must be shed with
    // a typed kOverloaded + retry-after answered by the event loop itself —
    // no worker, no thread, no waiting.
    ASSERT_TRUE(a.Send(net::EncodeFrame(net::MsgType::kPing, Slice())));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ASSERT_TRUE(b.Send(net::EncodeFrame(net::MsgType::kPing, Slice())));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ASSERT_TRUE(c.Send(net::EncodeFrame(net::MsgType::kPing, Slice())));

    auto t0 = Clock::now();
    ASSERT_TRUE(c.ReadFrame(&type, &payload));
    double shed_ms = ElapsedMs(t0);
    ASSERT_EQ(type, net::MsgType::kError);
    Status shed;
    ASSERT_TRUE(net::DecodeStatusPayload(payload, &shed).ok());
    EXPECT_TRUE(shed.IsOverloaded()) << shed.ToString();
    EXPECT_EQ(RetryAfterMsFromMessage(shed.message()), 7u) << shed.message();
    EXPECT_LT(shed_ms, 300.0) << "shed answer waited on the busy worker";

    // a and b were admitted and must complete…
    EXPECT_TRUE(a.ReadFrame(&type, &payload) && type == net::MsgType::kPong);
    EXPECT_TRUE(b.ReadFrame(&type, &payload) && type == net::MsgType::kPong);
    EXPECT_GE(server_->SnapshotStats().run_queue_sheds, 1u);
  }
  // …and the shed connection was never closed: it retries and succeeds.
  EXPECT_TRUE(c.Ping());
}

}  // namespace
}  // namespace aedb
