// One benchmark deployment: a 4-shard ShardedDatabase in its own data
// directory behind a net::Server on loopback, with TPC-C loaded through the
// AE driver over the socket. Also the post-run correctness checks that need
// the deployment: router-versus-shard totals, TPC-C consistency, and the
// no-plaintext-at-rest scan of the data directory.
#ifndef AEBENCH_DEPLOYMENT_H_
#define AEBENCH_DEPLOYMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client/driver.h"
#include "decorators.h"
#include "net/server.h"
#include "server/router.h"
#include "tpcc/tpcc.h"

namespace aebench {

/// Enclave gate-crossing cost every deployment runs with (the value the
/// paper's Fig 8 and Fig 9 use).
constexpr uint64_t kEnclaveTransitionNs = 3000;

struct DeploymentSpec {
  aedb::tpcc::TpccConfig tpcc;  // one shard per warehouse
  bool ae_connection = true;    // DriverOptions::column_encryption_enabled
  bool cache_describe = true;   // DriverOptions::cache_describe_results
  uint64_t pool_pages = 0;      // per shard; 0 = the engine default
};

class Deployment {
 public:
  /// Builds the deployment in a fresh `data_dir` (which must not exist),
  /// provisions keys, creates and loads the schema, and attests every
  /// shard's enclave when the schema is encrypted.
  static aedb::Result<std::unique_ptr<Deployment>> Create(
      const DeploymentSpec& spec, const std::string& data_dir);
  /// Stops everything and removes the data directory.
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// A driver on its own SocketTransport connection; `*transport` is set to
  /// the connection's tracing decorator (owned by the driver).
  aedb::Result<std::unique_ptr<aedb::client::Driver>> Connect(
      TracingTransport** transport = nullptr);

  /// Stops the server and shuts the database down cleanly, so everything
  /// it holds reaches the data directory. Idempotent.
  void Stop();

  aedb::server::ShardedDatabase* db() { return db_.get(); }
  aedb::net::Server* server() { return server_.get(); }
  const DeploymentSpec& spec() const { return spec_; }
  const std::string& data_dir() const { return data_dir_; }
  /// Heap pages of the Customer table on shard `i`.
  size_t CustomerPages(uint32_t shard);
  /// Wall seconds Create() spent generating keys (vault, enclave author,
  /// HGS), opening the shards (each shard's host and enclave keys, recovery)
  /// and loading (server start, CMK/CEK provisioning, schema, rows,
  /// attestation of every shard). The first two are mostly RSA prime
  /// search, whose length varies from one set-up to the next.
  double keys_s() const { return keys_s_; }
  double open_s() const { return open_s_; }
  double load_s() const { return load_s_; }
  /// Process CPU seconds of the load phase: the part of set-up that does
  /// not search for primes.
  double load_cpu_s() const { return load_cpu_s_; }

 private:
  Deployment() = default;
  aedb::Status Build();

  DeploymentSpec spec_;
  std::string data_dir_;
  std::unique_ptr<aedb::keys::InMemoryKeyVault> vault_;
  aedb::keys::KeyProviderRegistry registry_;
  aedb::crypto::RsaPrivateKey author_key_;
  aedb::enclave::EnclaveImage image_;
  std::unique_ptr<aedb::attestation::HostGuardianService> hgs_;
  std::unique_ptr<aedb::server::ShardedDatabase> db_;
  std::unique_ptr<TracingBackend> backend_;
  std::unique_ptr<aedb::net::Server> server_;
  bool stopped_ = false;
  double keys_s_ = 0, open_s_ = 0, load_s_ = 0, load_cpu_s_ = 0;
};

/// Post-run checks of a TPC-C deployment.
struct TpccCheck {
  /// Router totals that differ from the sum of per-shard totals, for the
  /// tables transactions insert into (a routing or 2PC atomicity bug).
  uint64_t wrong_results = 0;
  /// Violations of TPC-C consistency conditions 1 (W_YTD = sum(D_YTD)) and
  /// 2 (D_NEXT_O_ID - 1 = max(O_ID)), per warehouse and district.
  uint64_t consistency_violations = 0;
  std::string detail;  // the first problem found
};
TpccCheck CheckTpcc(Deployment* d);

/// Bytes in every file under `dir` that match a loader plaintext of an
/// encrypted Customer column: each C_LAST the loader wrote, and the
/// "First<digit>", "Street<digit>" and "City<digit>" prefixes of C_FIRST,
/// C_STREET_1 and C_CITY. (C_STREET_2 "Apt<n>" and the two-letter C_STATE
/// are too short to tell apart from ciphertext bytes.)
uint64_t CountPlaintextHits(const std::string& dir,
                            const std::vector<std::string>& last_names);

/// User plus system CPU seconds of the whole process (clients and server).
double ProcessCpuSeconds();

/// C_LAST of customer c (1-based) as the loader writes it when
/// customers_per_district <= 1000: LastName(c - 1).
std::vector<std::string> LoaderLastNames(int customers_per_district);

}  // namespace aebench

#endif  // AEBENCH_DEPLOYMENT_H_
