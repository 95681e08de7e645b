// Network-layer overhead: what does a loopback TCP round trip through the
// aedb wire protocol cost against the in-process call path?
//
//   1. raw frame RTT (Ping/Pong: codec + syscalls, no SQL),
//   2. point SELECT through the AE driver, in-process vs SocketTransport,
//      plaintext and encrypted (DET) columns,
//   3. a short TPC-C burst over both paths (the loopback harness mode).
//
// The delta between paths is pure network-subsystem overhead: both run the
// same driver logic against the same Database.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/query_context.h"
#include "fault/fault.h"
#include "tpcc_bench_common.h"

namespace aedb::bench {
namespace {

using aedb::QueryContext;
using aedb::ScopedQueryContext;
using Clock = std::chrono::steady_clock;
using types::Value;

double MedianUs(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  return samples.empty() ? 0.0 : samples[samples.size() / 2];
}

template <typename Fn>
double TimeOpsUs(int iters, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(iters);
  for (int i = 0; i < iters; ++i) {
    auto t0 = Clock::now();
    if (!fn()) return -1.0;
    auto t1 = Clock::now();
    samples.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  return MedianUs(samples);
}

int Run() {
  tpcc::TpccConfig tpcc_config;
  tpcc_config.warehouses = 1;
  tpcc_config.customers_per_district = 10;
  tpcc_config.initial_orders_per_district = 5;

  SystemConfig system;
  system.name = "SQL-AE-DET";
  system.encryption = tpcc::Encryption::kDeterministic;
  system.cache_describe = true;

  auto d = SetUpDeployment(system, tpcc_config, /*network_us=*/0,
                           /*enclave_transition_ns=*/0);
  if (!d) {
    std::fprintf(stderr, "deployment setup failed\n");
    return 1;
  }
  Status st = d->EnableLoopback();
  if (!st.ok()) {
    std::fprintf(stderr, "loopback start failed: %s\n", st.ToString().c_str());
    return 1;
  }

  constexpr int kIters = 2000;

  // --- 1. raw frame round trip (no SQL) ---
  net::SocketTransport::Options topts;
  topts.port = d->net_server->port();
  auto ping_conn = net::SocketTransport::Connect(topts);
  if (!ping_conn.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 ping_conn.status().ToString().c_str());
    return 1;
  }
  double ping_us = TimeOpsUs(kIters, [&] { return (*ping_conn)->Ping().ok(); });

  // --- 2. point SELECT through the driver on both paths ---
  d->loopback = false;
  auto inproc = d->MakeDriver();
  d->loopback = true;
  auto socket = d->MakeDriver();
  if (!inproc || !socket) {
    std::fprintf(stderr, "driver construction failed\n");
    return 1;
  }

  const std::string plain_sql =
      "SELECT D_NAME FROM District WHERE D_W_ID = @w AND D_ID = @d";
  const std::string enc_sql =
      "SELECT C_FIRST, C_LAST FROM Customer WHERE C_W_ID = @w AND C_D_ID = @d "
      "AND C_ID = @c";
  auto plain_params = [] {
    return client::NamedParams{{"w", Value::Int32(1)}, {"d", Value::Int32(1)}};
  };
  auto enc_params = [] {
    return client::NamedParams{{"w", Value::Int32(1)},
                               {"d", Value::Int32(1)},
                               {"c", Value::Int32(1)}};
  };

  auto query_ok = [](client::Driver* drv, const std::string& sql,
                     const client::NamedParams& params) {
    auto rs = drv->Query(sql, params);
    return rs.ok() && !rs->rows.empty();
  };

  double inproc_plain =
      TimeOpsUs(kIters, [&] { return query_ok(inproc.get(), plain_sql, plain_params()); });
  double socket_plain =
      TimeOpsUs(kIters, [&] { return query_ok(socket.get(), plain_sql, plain_params()); });
  double inproc_enc =
      TimeOpsUs(kIters, [&] { return query_ok(inproc.get(), enc_sql, enc_params()); });
  double socket_enc =
      TimeOpsUs(kIters, [&] { return query_ok(socket.get(), enc_sql, enc_params()); });
  if (inproc_plain < 0 || socket_plain < 0 || inproc_enc < 0 || socket_enc < 0) {
    std::fprintf(stderr, "query failed during timing loop\n");
    return 1;
  }

  std::printf("# bench_net: loopback TCP vs in-process (median us/op, %d ops)\n",
              kIters);
  std::printf("%-32s %10.1f\n", "frame_rtt_ping", ping_us);
  std::printf("%-32s %10.1f\n", "select_plain_inprocess", inproc_plain);
  std::printf("%-32s %10.1f  (+%.1f us)\n", "select_plain_socket", socket_plain,
              socket_plain - inproc_plain);
  std::printf("%-32s %10.1f\n", "select_encrypted_inprocess", inproc_enc);
  std::printf("%-32s %10.1f  (+%.1f us)\n", "select_encrypted_socket",
              socket_enc, socket_enc - inproc_enc);

  // --- 3. TPC-C burst over both paths ---
  d->loopback = false;
  auto r_inproc = RunConfig(d.get(), /*threads=*/2, /*seconds=*/2.0);
  d->loopback = true;
  auto r_socket = RunConfig(d.get(), /*threads=*/2, /*seconds=*/2.0);
  std::printf("%-32s %10.0f txn/s (%llu committed)\n", "tpcc_inprocess",
              r_inproc.txn_per_second,
              static_cast<unsigned long long>(r_inproc.committed));
  std::printf("%-32s %10.0f txn/s (%llu committed)\n", "tpcc_socket",
              r_socket.txn_per_second,
              static_cast<unsigned long long>(r_socket.committed));

  // --- 4. fault-injection overhead when disarmed ---
  // Every AEDB_FAULT_POINT compiles to one relaxed atomic load when nothing
  // is armed. Time the macro in a tight loop and express its cost relative
  // to the plain-SELECT round trip; the guard fails if the registry's fast
  // path ever grows past 1% of a request.
  constexpr int kFaultIters = 1 << 22;
  volatile uint64_t sink = 0;
  auto f0 = Clock::now();
  for (int i = 0; i < kFaultIters; ++i) {
    Status fst = AEDB_FAULT_POINT("bench/disarmed_probe");
    sink = sink + (fst.ok() ? 1 : 0);
  }
  auto f1 = Clock::now();
  double point_ns =
      std::chrono::duration<double, std::nano>(f1 - f0).count() / kFaultIters;
  // A request path crosses only a handful of fault points; budget 16.
  double per_request_us = 16.0 * point_ns / 1000.0;
  double overhead_pct = 100.0 * per_request_us / socket_plain;
  std::printf("%-32s %10.2f ns/point (x16 = %.3f us, %.3f%% of plain "
              "socket SELECT) %s\n",
              "fault_point_disarmed", point_ns, per_request_us, overhead_pct,
              overhead_pct < 1.0 ? "[OK <1%]" : "[FAIL >=1%]");
  if (overhead_pct >= 1.0) return 1;

  // --- 5. deadline-check overhead when no deadline is armed ---
  // The executor calls QueryContext::Current()->Check() at every morsel
  // boundary. The gated quantity is the DISARMED shape — queries with no
  // deadline, i.e. every query before this PR — where the check is a single
  // thread-local read: ~64 morsel boundaries per request at bench scale must
  // stay under 1% of the plain loopback SELECT. The armed shape additionally
  // pays a steady-clock read per check; it is reported (queries that opt into
  // a budget buy those reads) but only the always-on cost gates.
  constexpr int kDeadlineIters = 1 << 22;
  auto d0 = Clock::now();
  for (int i = 0; i < kDeadlineIters; ++i) {
    const QueryContext* q = QueryContext::Current();
    Status dst = q == nullptr ? Status::OK() : q->Check();
    sink = sink + (dst.ok() ? 1 : 0);
  }
  auto d1 = Clock::now();
  double nodl_ns =
      std::chrono::duration<double, std::nano>(d1 - d0).count() / kDeadlineIters;

  QueryContext armed = QueryContext::WithDeadlineAfter(std::chrono::hours(1));
  ScopedQueryContext scoped(&armed);
  auto d2 = Clock::now();
  for (int i = 0; i < kDeadlineIters; ++i) {
    const QueryContext* q = QueryContext::Current();
    Status dst = q == nullptr ? Status::OK() : q->Check();
    sink = sink + (dst.ok() ? 1 : 0);
  }
  auto d3 = Clock::now();
  double armed_ns =
      std::chrono::duration<double, std::nano>(d3 - d2).count() / kDeadlineIters;
  double dl_request_us = 64.0 * nodl_ns / 1000.0;
  double dl_pct = 100.0 * dl_request_us / socket_plain;
  std::printf("%-32s %10.2f ns disarmed, %.2f ns armed (disarmed x64 = "
              "%.3f us, %.3f%% of plain socket SELECT) %s\n",
              "deadline_check", nodl_ns, armed_ns, dl_request_us, dl_pct,
              dl_pct < 1.0 ? "[OK <1%]" : "[FAIL >=1%]");
  if (dl_pct >= 1.0) return 1;

  const net::ServerStatsSnapshot s = d->net_server->SnapshotStats();
  std::printf("# server: %llu conns, %llu frames in/%llu out, %llu bytes "
              "in/%llu out, %llu protocol errors\n",
              static_cast<unsigned long long>(s.connections_accepted),
              static_cast<unsigned long long>(s.frames_in),
              static_cast<unsigned long long>(s.frames_out),
              static_cast<unsigned long long>(s.bytes_in),
              static_cast<unsigned long long>(s.bytes_out),
              static_cast<unsigned long long>(s.protocol_errors));
  return 0;
}

// ---------------------------------------------------------------------------
// --connscale: does a herd of live-but-idle encrypted connections tax the
// active ones? Sweeps {0, 1000, 2500, 5000} handshaken idle sockets parked on
// the event loop while 4 closed-loop driver clients issue the validated point
// SELECT back to back; reports qps and send-to-response p50/p99 per herd size
// and writes BENCH_connscale.json.
// ---------------------------------------------------------------------------

/// Raises RLIMIT_NOFILE to at least `need` fds (both ends of every idle
/// socket live in this process).
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

/// A blocking loopback socket that completes the frame handshake and then
/// goes silent — the server must keep it registered but pay ~nothing for it.
class IdleConn {
 public:
  explicit IdleConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Close();
      return;
    }
    timeval tv{8, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~IdleConn() { Close(); }
  IdleConn(IdleConn&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }

  bool ok() const { return fd_ >= 0; }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool Handshake() {
    net::HandshakeReq req;
    Bytes frame = net::EncodeFrame(net::MsgType::kHandshake, req.Encode());
    size_t sent = 0;
    while (sent < frame.size()) {
      ssize_t w = ::send(fd_, frame.data() + sent, frame.size() - sent,
                         MSG_NOSIGNAL);
      if (w <= 0) return false;
      sent += static_cast<size_t>(w);
    }
    Bytes header(net::kFrameHeaderSize);
    if (!ReadFull(header.data(), header.size())) return false;
    auto h = net::DecodeFrameHeader(header, net::kDefaultMaxPayload);
    if (!h.ok() || h->type != net::MsgType::kHandshakeAck) return false;
    Bytes payload(h->payload_size);
    return h->payload_size == 0 || ReadFull(payload.data(), payload.size());
  }

 private:
  bool ReadFull(uint8_t* out, size_t n) {
    size_t got = 0;
    while (got < n) {
      ssize_t r = ::recv(fd_, out + got, n - got, 0);
      if (r <= 0) return false;
      got += static_cast<size_t>(r);
    }
    return true;
  }

  int fd_ = -1;
};

struct ScalePoint {
  size_t idle_sockets = 0;
  tpcc::OpenLoopResult r;
  uint64_t live_connections = 0;
  uint64_t epoll_wakeups = 0;
};

int RunConnScale() {
  const std::vector<size_t> herd_sizes = {0, 1000, 2500, 5000};
  size_t max_herd = herd_sizes.back();
  // Client fd + server fd per idle socket, plus drivers/listener/slack.
  if (!EnsureFdBudget(2 * max_herd + 512)) {
    std::fprintf(stderr,
                 "connscale: cannot raise RLIMIT_NOFILE to %zu fds\n",
                 2 * max_herd + 512);
    return 1;
  }

  tpcc::TpccConfig tpcc_config;
  tpcc_config.warehouses = 1;
  tpcc_config.customers_per_district = 30;
  tpcc_config.initial_orders_per_district = 5;

  SystemConfig system;
  system.name = "SQL-AE-DET";
  system.encryption = tpcc::Encryption::kDeterministic;
  system.cache_describe = true;

  auto d = SetUpDeployment(system, tpcc_config, /*network_us=*/0,
                           /*enclave_transition_ns=*/0);
  if (!d) {
    std::fprintf(stderr, "deployment setup failed\n");
    return 1;
  }
  net::ServerConfig net_config;
  net_config.max_connections = max_herd + 64;
  Status st = d->EnableLoopback(net_config);
  if (!st.ok()) {
    std::fprintf(stderr, "loopback start failed: %s\n", st.ToString().c_str());
    return 1;
  }

  std::printf("# bench_net --connscale: closed-loop qps vs live idle "
              "sockets (4 clients, point SELECT)\n");
  d->driver_deadline_ms = 0;

  std::vector<IdleConn> herd;
  herd.reserve(max_herd);
  std::vector<ScalePoint> points;
  for (size_t target : herd_sizes) {
    while (herd.size() < target) {
      IdleConn c(d->net_server->port());
      if (!c.ok() || !c.Handshake()) {
        std::fprintf(stderr, "connscale: idle socket %zu failed to join\n",
                     herd.size());
        return 1;
      }
      herd.push_back(std::move(c));
    }
    ScalePoint p;
    p.idle_sockets = target;
    p.r = tpcc::RunClosedLoop([&] { return d->MakeDriver(); }, d->config,
                              /*threads=*/4, /*seconds=*/1.5);
    net::ServerStatsSnapshot s = d->net_server->SnapshotStats();
    p.live_connections = s.connections_active;
    p.epoll_wakeups = s.epoll_wakeups;
    points.push_back(p);
    std::printf("idle=%5zu live=%5llu  qps=%7.0f  p50=%6.2fms p99=%6.2fms "
                "wrong=%llu\n",
                target, static_cast<unsigned long long>(p.live_connections),
                p.r.goodput_tps, p.r.p50_ms, p.r.p99_ms,
                static_cast<unsigned long long>(p.r.wrong_results));
    if (p.r.completed == 0 || p.r.wrong_results != 0) {
      std::fprintf(stderr, "connscale: bad sweep point\n");
      return 1;
    }
  }

  FILE* f = std::fopen("BENCH_connscale.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"clients\": 4,\n  \"sweep\": [\n");
    for (size_t i = 0; i < points.size(); ++i) {
      const ScalePoint& p = points[i];
      std::fprintf(
          f,
          "    {\"idle_sockets\": %zu, \"live_connections\": %llu, "
          "\"qps\": %.1f, \"completed\": %llu, \"p50_ms\": %.2f, "
          "\"p99_ms\": %.2f, \"max_ms\": %.2f, \"wrong_results\": %llu, "
          "\"epoll_wakeups\": %llu}%s\n",
          p.idle_sockets, static_cast<unsigned long long>(p.live_connections),
          p.r.goodput_tps, static_cast<unsigned long long>(p.r.completed),
          p.r.p50_ms, p.r.p99_ms, p.r.max_ms,
          static_cast<unsigned long long>(p.r.wrong_results),
          static_cast<unsigned long long>(p.epoll_wakeups),
          i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("# wrote BENCH_connscale.json\n");
  }

  // The herd must still be live at the end: nothing was reaped, nothing
  // errored, the event loop carried every socket through the whole sweep.
  net::ServerStatsSnapshot s = d->net_server->SnapshotStats();
  if (s.connections_active < max_herd) {
    std::fprintf(stderr, "connscale: herd shrank (%llu live < %zu)\n",
                 static_cast<unsigned long long>(s.connections_active),
                 max_herd);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace aedb::bench

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--connscale") {
    return aedb::bench::RunConnScale();
  }
  return aedb::bench::Run();
}
