#ifndef AEDB_TPCC_TPCC_H_
#define AEDB_TPCC_TPCC_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>

#include "client/driver.h"
#include "common/random.h"

namespace aedb::tpcc {

/// Which encryption configuration the CUSTOMER PII columns use (paper §5.3:
/// C_FIRST, C_LAST, C_STREET_1, C_STREET_2, C_CITY, C_STATE).
enum class Encryption {
  kPlaintext,      // SQL-PT / SQL-PT-AEConn
  kDeterministic,  // SQL-AE-DET (enclave-disabled keys)
  kRandomized,     // SQL-AE-RND (enclave-enabled keys)
};

const char* EncryptionName(Encryption e);

/// Laptop-scale knobs; the spec's cardinalities divided down. Relative
/// behaviour (who wins, where the enclave sits in the hot path) is preserved.
struct TpccConfig {
  int warehouses = 1;
  int districts_per_warehouse = 10;
  int customers_per_district = 30;
  int items = 100;
  int initial_orders_per_district = 10;
  Encryption encryption = Encryption::kPlaintext;
  /// CEK/CMK names used when encryption != kPlaintext.
  std::string cek_name = "TpccCEK";
  uint64_t seed = 42;
  /// Percent of New-Order / Payment transactions that touch a REMOTE
  /// warehouse (New-Order: the order lines' supply warehouse; Payment: the
  /// paying customer's home warehouse). Only active when warehouses > 1.
  /// Under warehouse-partitioned sharding these are the cross-shard
  /// transactions that exercise two-phase commit.
  int remote_pct = 10;
};

/// TPC-C C_LAST syllables (spec clause 4.3.2.3).
std::string LastName(int num);

/// Schema creation + initial population through the AE driver (so encrypted
/// columns are encrypted client-side exactly as in production).
class TpccLoader {
 public:
  TpccLoader(client::Driver* driver, TpccConfig config)
      : driver_(driver), config_(std::move(config)) {}

  /// Creates the nine tables and their indexes. Keys (CMK/CEK) must already
  /// be provisioned when encryption is on.
  Status CreateSchema();
  Status Load();

 private:
  Status LoadWarehouse(int w);

  client::Driver* driver_;
  TpccConfig config_;
};

/// Per-transaction-type counters.
struct TxnStats {
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> aborted{0};
};

/// One terminal: runs the standard transaction mix (45% New-Order,
/// 43% Payment, 4% each Order-Status, Delivery, Stock-Level) against its own
/// driver connection. Per the paper (§5.3), Payment and Order-Status select
/// customers by last name 60% of the time and the ORDER BY C_FIRST is
/// replaced by a client-side sort to find the median customer.
class TpccTerminal {
 public:
  TpccTerminal(client::Driver* driver, const TpccConfig& config, uint64_t seed)
      : driver_(driver), config_(config), rng_(seed) {}

  /// Runs one transaction from the mix; returns OK whether it committed or
  /// was rolled back (1% of New-Orders roll back by spec); hard errors
  /// propagate.
  Status RunOne();

  Status NewOrder();
  Status Payment();
  Status OrderStatus();
  Status Delivery();
  Status StockLevel();

  uint64_t committed() const { return committed_; }
  uint64_t aborted() const { return aborted_; }
  /// Transactions restarted after a recovery-induced kTransactionAborted.
  uint64_t restarts() const { return restarts_; }

 private:
  /// Rolls `txn` back and counts the abort. Lock-timeout aborts
  /// (kFailedPrecondition) are swallowed (ordinary contention);
  /// kTransactionAborted propagates so RunOne restarts the transaction;
  /// anything else is a hard error.
  Status FailTxn(uint64_t txn, const Status& st);

  /// Cap on same-transaction restarts per RunOne call.
  static constexpr int kMaxTxnRestarts = 3;

  /// Picks a customer id (40%) or last name (60%) per spec mix.
  bool ByLastName() { return rng_.Uniform(1, 100) <= 60; }
  int RandomCustomerId() {
    return static_cast<int>(rng_.NURand(1023, 1, config_.customers_per_district,
                                        kCRunCid));
  }
  std::string RandomLastName() {
    int64_t max_name =
        std::min<int64_t>(999, config_.customers_per_district * 3);
    return LastName(static_cast<int>(rng_.NURand(255, 0, max_name, kCRunLast)));
  }
  /// Finds the median-by-C_FIRST customer with the given last name
  /// (client-side sort replacing ORDER BY C_FIRST, §5.3).
  Result<int> CustomerByLastName(uint64_t txn, int w, int d,
                                 const std::string& last);
  /// True for the configured remote fraction of transactions (needs > 1
  /// warehouse).
  bool PickRemote() {
    return config_.warehouses > 1 && config_.remote_pct > 0 &&
           rng_.Uniform(1, 100) <= static_cast<int64_t>(config_.remote_pct);
  }
  /// A warehouse other than `home`, uniform over the rest.
  int RemoteWarehouse(int home) {
    int other = static_cast<int>(rng_.Uniform(1, config_.warehouses - 1));
    return other >= home ? other + 1 : other;
  }

  static constexpr int64_t kCRunLast = 173;  // runtime NURand constant
  static constexpr int64_t kCRunCid = 1021;

  client::Driver* driver_;
  // By value (like TpccLoader): a terminal may outlive the caller's config
  // object, e.g. when constructed from a factory-made temporary.
  TpccConfig config_;
  Xoshiro256 rng_;
  uint64_t committed_ = 0;
  uint64_t aborted_ = 0;
  uint64_t restarts_ = 0;
};

/// Benchcraft-style closed-loop driver: N terminal threads hammering one
/// server for a fixed duration.
struct BenchcraftResult {
  double seconds = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  double txn_per_second = 0;
  /// First hard (non-retryable) error any terminal stopped on, if any.
  std::string first_error;
};

BenchcraftResult RunBenchcraft(
    const std::function<std::unique_ptr<client::Driver>()>& driver_factory,
    const TpccConfig& config, int threads, double seconds);

/// Deterministic variant: runs until `target_committed` transactions have
/// committed across all terminals (or `deadline_seconds` passes — a safety
/// net, not a measurement window). Unlike RunBenchcraft there is no timed
/// window, so tests asserting on committed counts don't depend on machine
/// speed.
BenchcraftResult RunBenchcraftCount(
    const std::function<std::unique_ptr<client::Driver>()>& driver_factory,
    const TpccConfig& config, int threads, uint64_t target_committed,
    double deadline_seconds);

/// What one open-loop overload run observed. Every issued query lands in
/// exactly one of {completed, shed_overloaded, shed_deadline, other_errors};
/// wrong_results counts completed queries whose self-validation failed (wrong
/// C_ID echoed, or a C_LAST that does not decrypt to the loader's value) —
/// the graceful-degradation contract is that it stays zero no matter how far
/// offered load exceeds capacity.
struct OpenLoopResult {
  double seconds = 0;
  uint64_t offered = 0;    ///< arrivals issued by the schedule
  uint64_t completed = 0;  ///< OK responses that validated
  uint64_t shed_overloaded = 0;
  uint64_t shed_deadline = 0;
  uint64_t other_errors = 0;  ///< untyped failures (must be 0 under overload)
  uint64_t wrong_results = 0;
  double goodput_tps = 0;  ///< completed / seconds
  /// Latency of completed queries. RunOpenLoop measures from the *scheduled*
  /// arrival (not the send), so queueing delay is charged — no coordinated
  /// omission; RunClosedLoop measures from the send.
  double p50_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
};

/// Open-loop overload driver: `threads` issuers pull tickets from a shared
/// arrival schedule at `offered_tps` regardless of completions, so offered
/// load can exceed capacity (a closed loop self-throttles and cannot). The
/// workload is the TPC-C point lookup — C_ID + encrypted C_LAST by primary
/// key — and every response is validated against the loader's deterministic
/// values, making wrong-results observable rather than assumed away.
/// Deadlines come from the driver factory's DriverOptions::deadline_ms.
OpenLoopResult RunOpenLoop(
    const std::function<std::unique_ptr<client::Driver>()>& driver_factory,
    const TpccConfig& config, int threads, double offered_tps, double seconds);

/// Closed-loop variant of the same validated point lookup: each of `threads`
/// issuers sends its next query as soon as the previous one answered, so the
/// result measures the server's capacity and per-query latency (send to
/// response) at that concurrency. `offered` counts the queries sent.
OpenLoopResult RunClosedLoop(
    const std::function<std::unique_ptr<client::Driver>()>& driver_factory,
    const TpccConfig& config, int threads, double seconds);

}  // namespace aedb::tpcc

#endif  // AEDB_TPCC_TPCC_H_
