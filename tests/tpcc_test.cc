#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "crypto/drbg.h"
#include "tpcc/tpcc.h"

namespace aedb::tpcc {
namespace {

using client::Driver;
using client::DriverOptions;
using types::Value;

class TpccTestBase : public ::testing::Test {
 protected:
  void SetUp() override {
    vault_ = std::make_unique<keys::InMemoryKeyVault>();
    ASSERT_TRUE(vault_->CreateKey("kv/tpcc-enclave", 1024).ok());
    ASSERT_TRUE(vault_->CreateKey("kv/tpcc-cold", 1024).ok());
    ASSERT_TRUE(registry_.Register(vault_.get()).ok());
    crypto::HmacDrbg drbg(crypto::SecureRandom(48),
                          Slice(std::string_view("tpcc-author")));
    author_key_ = crypto::GenerateRsaKey(1024, &drbg);
    image_ = enclave::EnclaveImage::MakeEsImage(1, author_key_);
    hgs_ = std::make_unique<attestation::HostGuardianService>();
    server::ServerOptions opts;
    db_ = std::make_unique<server::Database>(opts, hgs_.get(), &image_);
    hgs_->RegisterTcgLog(db_->platform()->tcg_log());
  }

  std::unique_ptr<Driver> MakeDriver() {
    DriverOptions opts;
    opts.enclave_policy.trusted_author_id = image_.AuthorId();
    return std::make_unique<Driver>(db_.get(), &registry_,
                                    hgs_->signing_public(), opts);
  }

  void ProvisionKeys(Driver* driver, Encryption enc) {
    if (enc == Encryption::kPlaintext) return;
    bool enclave = enc == Encryption::kRandomized;
    ASSERT_TRUE(driver
                    ->ProvisionCmk("TpccCMK", vault_->name(),
                                   enclave ? "kv/tpcc-enclave" : "kv/tpcc-cold",
                                   enclave)
                    .ok());
    ASSERT_TRUE(driver->ProvisionCek("TpccCEK", "TpccCMK").ok());
  }

  std::unique_ptr<keys::InMemoryKeyVault> vault_;
  keys::KeyProviderRegistry registry_;
  crypto::RsaPrivateKey author_key_;
  enclave::EnclaveImage image_;
  std::unique_ptr<attestation::HostGuardianService> hgs_;
  std::unique_ptr<server::Database> db_;
};

class TpccTest : public TpccTestBase,
                 public ::testing::WithParamInterface<Encryption> {};

TEST(TpccHelpers, LastNameSyllables) {
  EXPECT_EQ(LastName(0), "BARBARBAR");
  EXPECT_EQ(LastName(371), "PRICALLYOUGHT");
  EXPECT_EQ(LastName(999), "EINGEINGEING");
}

TEST_P(TpccTest, LoadAndRunMix) {
  TpccConfig config;
  config.warehouses = 1;
  config.customers_per_district = 12;
  config.districts_per_warehouse = 3;
  config.items = 40;
  config.initial_orders_per_district = 6;
  config.encryption = GetParam();

  auto driver = MakeDriver();
  ProvisionKeys(driver.get(), config.encryption);
  TpccLoader loader(driver.get(), config);
  Status schema = loader.CreateSchema();
  ASSERT_TRUE(schema.ok()) << schema.ToString();
  Status load = loader.Load();
  ASSERT_TRUE(load.ok()) << load.ToString();

  // Row counts make sense.
  auto customers = driver->Query("SELECT COUNT(*) FROM Customer");
  ASSERT_TRUE(customers.ok());
  EXPECT_EQ(customers->rows[0][0].i64(), 12 * 3);

  // Run each transaction type directly at least once, then a mixed batch.
  TpccTerminal terminal(driver.get(), config, 7);
  EXPECT_TRUE(terminal.NewOrder().ok());
  EXPECT_TRUE(terminal.Payment().ok());
  EXPECT_TRUE(terminal.OrderStatus().ok());
  EXPECT_TRUE(terminal.Delivery().ok());
  EXPECT_TRUE(terminal.StockLevel().ok());
  for (int i = 0; i < 60; ++i) {
    Status st = terminal.RunOne();
    ASSERT_TRUE(st.ok()) << "txn " << i << ": " << st.ToString();
  }
  EXPECT_GT(terminal.committed(), 50u);

  // Sanity: the order counter moved and payments accumulated.
  auto ytd = driver->Query("SELECT SUM(D_YTD) FROM District");
  ASSERT_TRUE(ytd.ok());
  EXPECT_GT(ytd->rows[0][0].dbl(), 3 * 30000.0);

  if (config.encryption == Encryption::kRandomized) {
    EXPECT_GT(db_->enclave()->stats().evals.load(), 0u);
    EXPECT_GT(db_->enclave()->stats().comparisons.load(), 0u);
  } else {
    // DET and plaintext configurations never touch the enclave.
    EXPECT_EQ(db_->enclave()->stats().evals.load(), 0u);
  }

  // The PII never appears in plaintext on pages when encryption is on.
  if (config.encryption != Encryption::kPlaintext) {
    bool leaked = false;
    db_->engine().ForEachPageRaw([&](uint32_t, Slice page) {
      std::string_view h(reinterpret_cast<const char*>(page.data()), page.size());
      if (h.find("BARBARBAR") != std::string_view::npos) leaked = true;
    });
    EXPECT_FALSE(leaked);
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, TpccTest,
                         ::testing::Values(Encryption::kPlaintext,
                                           Encryption::kDeterministic,
                                           Encryption::kRandomized),
                         [](const auto& info) {
                           return std::string(EncryptionName(info.param));
                         });

TEST_F(TpccTestBase, BenchcraftMultiThreaded) {
  TpccConfig config;
  config.warehouses = 1;
  config.customers_per_district = 12;
  config.districts_per_warehouse = 4;
  config.items = 40;
  config.initial_orders_per_district = 4;
  config.encryption = Encryption::kPlaintext;
  auto loader_driver = MakeDriver();
  TpccLoader loader(loader_driver.get(), config);
  ASSERT_TRUE(loader.CreateSchema().ok());
  ASSERT_TRUE(loader.Load().ok());

  // Run-to-count, not run-for-time: asserting ">N committed in one second"
  // was flaky on slow or loaded machines. The deadline is only a safety net
  // against a wedged run.
  auto result = RunBenchcraftCount([this] { return MakeDriver(); }, config,
                                   /*threads=*/4, /*target_committed=*/40,
                                   /*deadline_seconds=*/60.0);
  EXPECT_GE(result.committed, 40u) << "first error: " << result.first_error;
  EXPECT_GT(result.txn_per_second, 0.0);
  EXPECT_TRUE(result.first_error.empty()) << result.first_error;
}

/// New-Order takes its O_ID from D_NEXT_O_ID, and reads take no locks. The
/// value must be read under the X lock of the increment, or two New-Orders on
/// one district take the same O_ID and D_NEXT_O_ID runs ahead of MAX(O_ID).
TEST_F(TpccTestBase, ConcurrentNewOrdersOnOneDistrictTakeDistinctOrderIds) {
  TpccConfig config;
  config.warehouses = 1;
  config.districts_per_warehouse = 1;
  config.customers_per_district = 12;
  config.items = 40;
  config.initial_orders_per_district = 4;
  auto driver = MakeDriver();
  TpccLoader loader(driver.get(), config);
  ASSERT_TRUE(loader.CreateSchema().ok());
  ASSERT_TRUE(loader.Load().ok());

  // Rounds start together so New-Orders overlap while the district row is
  // unlocked, which is when a read-then-increment loses the update.
  constexpr int kTerminals = 4;
  constexpr int kRounds = 40;
  std::atomic<int> arrived{0};
  std::atomic<int> hard_errors{0};
  std::vector<std::thread> terminals;
  for (int t = 0; t < kTerminals; ++t) {
    terminals.emplace_back([&, t] {
      auto own = MakeDriver();
      TpccTerminal terminal(own.get(), config, 1000 + t);
      for (int round = 1; round <= kRounds; ++round) {
        arrived.fetch_add(1);
        while (arrived.load() < round * kTerminals) std::this_thread::yield();
        // Stagger the starts by up to a few statement times, so one
        // terminal's increment can land between another's read and write.
        std::this_thread::sleep_for(
            std::chrono::microseconds((t * 97 + round * 61) % 400));
        // Lock timeouts and write-write conflicts roll back inside NewOrder
        // and return OK; anything else is a hard error.
        Status st = terminal.NewOrder();
        if (!st.ok() && !st.IsTransactionAborted()) ++hard_errors;
      }
    });
  }
  for (auto& t : terminals) t.join();
  EXPECT_EQ(hard_errors.load(), 0);

  auto orders = driver->Query(
      "SELECT O_ID FROM Orders WHERE O_W_ID = 1 AND O_D_ID = 1");
  auto district = driver->Query(
      "SELECT D_NEXT_O_ID FROM District WHERE D_W_ID = 1 AND D_ID = 1");
  ASSERT_TRUE(orders.ok()) << orders.status().ToString();
  ASSERT_TRUE(district.ok()) << district.status().ToString();
  ASSERT_EQ(district->rows.size(), 1u);
  std::set<int> ids;
  int max_id = 0;
  for (const auto& row : orders->rows) {
    ids.insert(row[0].i32());
    max_id = std::max(max_id, row[0].i32());
  }
  EXPECT_GT(ids.size(), static_cast<size_t>(config.initial_orders_per_district));
  EXPECT_EQ(ids.size(), orders->rows.size()) << "two orders share an O_ID";
  EXPECT_EQ(district->rows[0][0].i32() - 1, max_id);
}

}  // namespace
}  // namespace aedb::tpcc
