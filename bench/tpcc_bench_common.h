#ifndef AEDB_BENCH_TPCC_BENCH_COMMON_H_
#define AEDB_BENCH_TPCC_BENCH_COMMON_H_

#include <cstdio>
#include <memory>
#include <string>

#include "crypto/drbg.h"
#include "net/server.h"
#include "net/socket_transport.h"
#include "tpcc/tpcc.h"

namespace aedb::bench {

/// One fully provisioned AE deployment (vault, HGS, enclave, server) with a
/// loaded TPC-C database, plus a driver factory for terminal threads.
struct TpccDeployment {
  std::unique_ptr<keys::InMemoryKeyVault> vault;
  keys::KeyProviderRegistry registry;
  crypto::RsaPrivateKey author_key;
  enclave::EnclaveImage image;
  std::unique_ptr<attestation::HostGuardianService> hgs;
  std::unique_ptr<server::Database> db;
  tpcc::TpccConfig config;
  bool ae_connection = true;
  bool cache_describe = true;
  /// Loopback mode: terminals connect through the wire protocol against a
  /// net::Server fronting `db` instead of calling it in-process.
  std::unique_ptr<net::Server> net_server;
  bool loopback = false;
  /// Per-query end-to-end budget stamped into every driver MakeDriver()
  /// produces (0 = none). Overload benches set this to bound p99.
  uint32_t driver_deadline_ms = 0;

  ~TpccDeployment() {
    if (net_server) net_server->Stop();
  }

  std::unique_ptr<client::Driver> MakeDriver() {
    client::DriverOptions opts;
    opts.column_encryption_enabled = ae_connection;
    opts.cache_describe_results = cache_describe;
    opts.enclave_policy.trusted_author_id = image.AuthorId();
    opts.deadline_ms = driver_deadline_ms;
    if (loopback && net_server) {
      net::SocketTransport::Options topts;
      topts.port = net_server->port();
      auto transport = net::SocketTransport::Connect(topts);
      if (!transport.ok()) {
        std::fprintf(stderr, "loopback connect failed: %s\n",
                     transport.status().ToString().c_str());
        return nullptr;
      }
      return std::make_unique<client::Driver>(std::move(transport).value(),
                                              &registry, hgs->signing_public(),
                                              opts);
    }
    return std::make_unique<client::Driver>(db.get(), &registry,
                                            hgs->signing_public(), opts);
  }

  /// Starts the TCP front end and routes future MakeDriver() calls over it.
  /// Pass a config to exercise the overload knobs (max_connections etc.).
  Status EnableLoopback(net::ServerConfig config_net = {}) {
    net_server = std::make_unique<net::Server>(db.get(), config_net);
    AEDB_RETURN_IF_ERROR(net_server->Start());
    loopback = true;
    return Status::OK();
  }
};

/// The benchmark's system configurations (paper §5.2).
struct SystemConfig {
  std::string name;
  tpcc::Encryption encryption = tpcc::Encryption::kPlaintext;
  bool ae_connection = true;
  /// Drivers cache describe results (the paper suggests this optimization;
  /// the measured configurations do NOT cache — §5.4.1).
  bool cache_describe = false;
};

inline std::unique_ptr<TpccDeployment> SetUpDeployment(
    const SystemConfig& system, const tpcc::TpccConfig& tpcc_config,
    uint32_t network_us, uint64_t enclave_transition_ns,
    size_t eval_batch_size = 256,
    const std::function<void(server::ServerOptions*)>& tune = nullptr) {
  auto d = std::make_unique<TpccDeployment>();
  d->config = tpcc_config;
  d->config.encryption = system.encryption;
  d->ae_connection = system.ae_connection;
  d->cache_describe = system.cache_describe;

  d->vault = std::make_unique<keys::InMemoryKeyVault>();
  if (!d->vault->CreateKey("kv/tpcc", 1024).ok()) return nullptr;
  if (!d->registry.Register(d->vault.get()).ok()) return nullptr;
  crypto::HmacDrbg drbg(crypto::SecureRandom(48),
                        Slice(std::string_view("bench-author")));
  d->author_key = crypto::GenerateRsaKey(1024, &drbg);
  d->image = enclave::EnclaveImage::MakeEsImage(1, d->author_key);
  d->hgs = std::make_unique<attestation::HostGuardianService>();

  server::ServerOptions opts;
  opts.enclave_config.transition_cost_ns = enclave_transition_ns;
  opts.simulated_network_us = network_us;
  // Short lock timeout: contention resolves as quick aborts instead of
  // multi-second stalls (laptop-scale W makes district rows hot).
  opts.engine.lock_timeout = std::chrono::milliseconds(100);
  opts.eval_batch_size = eval_batch_size;  // 1 = row-at-a-time enclave calls
  if (tune) tune(&opts);  // overload benches set the admission gate here
  d->db = std::make_unique<server::Database>(opts, d->hgs.get(), &d->image);
  d->hgs->RegisterTcgLog(d->db->platform()->tcg_log());

  auto loader_driver = d->MakeDriver();
  if (system.encryption != tpcc::Encryption::kPlaintext) {
    bool enclave = system.encryption == tpcc::Encryption::kRandomized;
    if (!loader_driver
             ->ProvisionCmk("TpccCMK", d->vault->name(), "kv/tpcc", enclave)
             .ok()) {
      return nullptr;
    }
    if (!loader_driver->ProvisionCek("TpccCEK", "TpccCMK").ok()) return nullptr;
  }
  tpcc::TpccLoader loader(loader_driver.get(), d->config);
  Status st = loader.CreateSchema();
  if (st.ok()) st = loader.Load();
  if (!st.ok()) {
    std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
    return nullptr;
  }
  return d;
}

inline tpcc::BenchcraftResult RunConfig(TpccDeployment* d, int threads,
                                        double seconds) {
  return tpcc::RunBenchcraft([d] { return d->MakeDriver(); }, d->config,
                             threads, seconds);
}

}  // namespace aedb::bench

#endif  // AEDB_BENCH_TPCC_BENCH_COMMON_H_
