// Shared-nothing sharding correctness: warehouse routing, reference-table
// replication, cross-shard 2PC atomicity, per-shard attestation isolation,
// a differential check that a sharded TPC-C run is indistinguishable from a
// single-engine run on the same seeded workload, and the merge rules behind
// the router's aggregated stats.

#include <gtest/gtest.h>

#include <stdlib.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "crypto/drbg.h"
#include "server/router.h"
#include "tpcc/tpcc.h"

namespace aedb {
namespace {

using client::Driver;
using client::DriverOptions;
using server::Database;
using server::ShardedDatabase;
using server::ShardedOptions;
using types::Value;

class ShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    vault_ = std::make_unique<keys::InMemoryKeyVault>();
    ASSERT_TRUE(vault_->CreateKey("kv/shard-enclave", 1024).ok());
    ASSERT_TRUE(registry_.Register(vault_.get()).ok());
    crypto::HmacDrbg drbg(crypto::SecureRandom(48),
                          Slice(std::string_view("shard-author")));
    author_key_ = crypto::GenerateRsaKey(1024, &drbg);
    image_ = enclave::EnclaveImage::MakeEsImage(1, author_key_);
    hgs_ = std::make_unique<attestation::HostGuardianService>();
  }

  void Build(uint32_t shards, server::ServerOptions base = {}) {
    ShardedOptions opts;
    opts.shards = shards;
    opts.base = std::move(base);
    sharded_ =
        std::make_unique<ShardedDatabase>(std::move(opts), hgs_.get(), &image_);
    for (uint32_t i = 0; i < shards; ++i) {
      hgs_->RegisterTcgLog(sharded_->shard(i)->platform()->tcg_log());
    }
    ASSERT_TRUE(sharded_->Open().ok());
  }

  std::unique_ptr<Driver> MakeDriver(server::SqlBackend* db) {
    DriverOptions opts;
    opts.enclave_policy.trusted_author_id = image_.AuthorId();
    return std::make_unique<Driver>(db, &registry_, hgs_->signing_public(),
                                    opts);
  }

  std::unique_ptr<keys::InMemoryKeyVault> vault_;
  keys::KeyProviderRegistry registry_;
  crypto::RsaPrivateKey author_key_;
  enclave::EnclaveImage image_;
  std::unique_ptr<attestation::HostGuardianService> hgs_;
  std::unique_ptr<ShardedDatabase> sharded_;
};

// A statement pinning W_ID routes to shard (w-1) mod N and nowhere else.
TEST_F(ShardTest, WarehouseRoutingPinsToOwningShard) {
  Build(3);
  auto driver = MakeDriver(sharded_.get());
  ASSERT_TRUE(
      driver->ExecuteDdl("CREATE TABLE Warehouse (W_ID INT, W_NAME VARCHAR)")
          .ok());
  for (int w = 1; w <= 6; ++w) {
    auto r = driver->Query(
        "INSERT INTO Warehouse (W_ID, W_NAME) VALUES (@w, @n)",
        {{"w", Value::Int32(w)}, {"n", Value::String("WH" + std::to_string(w))}});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  // Each shard holds exactly its two warehouses — checked against the shard's
  // engine directly, bypassing the router.
  for (uint32_t s = 0; s < 3; ++s) {
    auto direct =
        sharded_->shard(s)->Execute("SELECT COUNT(*) FROM Warehouse", {});
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    EXPECT_EQ(direct->rows[0][0].i64(), 2) << "shard " << s;
  }
  for (int w = 1; w <= 6; ++w) {
    uint32_t home = sharded_->ShardOfWarehouse(w);
    EXPECT_EQ(home, static_cast<uint32_t>((w - 1) % 3));
    auto direct = sharded_->shard(home)->Execute(
        "SELECT W_NAME FROM Warehouse WHERE W_ID = @w", {Value::Int32(w)});
    ASSERT_TRUE(direct.ok());
    ASSERT_EQ(direct->rows.size(), 1u) << "warehouse " << w << " not on home";
    EXPECT_EQ(direct->rows[0][0].str(), "WH" + std::to_string(w));
  }
  // Pinned read through the router finds the row; broadcast COUNT sums shards.
  auto pinned = driver->Query("SELECT W_NAME FROM Warehouse WHERE W_ID = @w",
                              {{"w", Value::Int32(5)}});
  ASSERT_TRUE(pinned.ok());
  ASSERT_EQ(pinned->rows.size(), 1u);
  EXPECT_EQ(pinned->rows[0][0].str(), "WH5");
  auto all = driver->Query("SELECT COUNT(*) FROM Warehouse");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->rows[0][0].i64(), 6);
}

// Tables without a warehouse column (Item) replicate writes to every shard
// and serve reads from one copy.
TEST_F(ShardTest, ReferenceTablesReplicateWritesReadOnce) {
  Build(3);
  auto driver = MakeDriver(sharded_.get());
  // A read of a table that does not exist yet fails, and must leave no route
  // plan behind: once the table exists, the same text is a reference-table
  // read of one shard, not a broadcast that counts every replica.
  EXPECT_FALSE(sharded_->Execute("SELECT COUNT(*) FROM Item", {}).ok());
  ASSERT_TRUE(
      driver->ExecuteDdl("CREATE TABLE Item (I_ID INT, I_NAME VARCHAR)").ok());
  for (int i = 1; i <= 4; ++i) {
    auto r = driver->Query("INSERT INTO Item (I_ID, I_NAME) VALUES (@i, @n)",
                           {{"i", Value::Int32(i)},
                            {"n", Value::String("item" + std::to_string(i))}});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  for (uint32_t s = 0; s < 3; ++s) {
    auto direct = sharded_->shard(s)->Execute("SELECT COUNT(*) FROM Item", {});
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(direct->rows[0][0].i64(), 4) << "replica missing on shard " << s;
  }
  // The router must not return three copies.
  auto through = driver->Query("SELECT COUNT(*) FROM Item");
  ASSERT_TRUE(through.ok());
  EXPECT_EQ(through->rows[0][0].i64(), 4);
}

// A transaction spanning two shards commits atomically through 2PC, and a
// rollback undoes both sides.
TEST_F(ShardTest, CrossShardTransactionIsAtomic) {
  Build(2);
  auto driver = MakeDriver(sharded_.get());
  ASSERT_TRUE(
      driver->ExecuteDdl("CREATE TABLE Warehouse (W_ID INT, W_YTD INT)").ok());
  for (int w = 1; w <= 2; ++w) {
    ASSERT_TRUE(driver
                    ->Query("INSERT INTO Warehouse (W_ID, W_YTD) VALUES (@w, 0)",
                            {{"w", Value::Int32(w)}})
                    .ok());
  }
  ASSERT_EQ(sharded_->ShardOfWarehouse(1), 0u);
  ASSERT_EQ(sharded_->ShardOfWarehouse(2), 1u);

  uint64_t before = sharded_->two_phase_commits();
  uint64_t txn = driver->Begin();
  for (int w = 1; w <= 2; ++w) {
    auto r = driver->Query(
        "UPDATE Warehouse SET W_YTD = @v WHERE W_ID = @w",
        {{"v", Value::Int32(100)}, {"w", Value::Int32(w)}}, txn);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  ASSERT_TRUE(driver->Commit(txn).ok());
  EXPECT_EQ(sharded_->two_phase_commits(), before + 1);
  for (int w = 1; w <= 2; ++w) {
    auto q = driver->Query("SELECT W_YTD FROM Warehouse WHERE W_ID = @w",
                           {{"w", Value::Int32(w)}});
    ASSERT_TRUE(q.ok());
    EXPECT_EQ(q->rows[0][0].i32(), 100) << "warehouse " << w;
  }

  // Rollback path: both sides revert.
  txn = driver->Begin();
  for (int w = 1; w <= 2; ++w) {
    ASSERT_TRUE(driver
                    ->Query("UPDATE Warehouse SET W_YTD = @v WHERE W_ID = @w",
                            {{"v", Value::Int32(777)}, {"w", Value::Int32(w)}},
                            txn)
                    .ok());
  }
  ASSERT_TRUE(driver->Rollback(txn).ok());
  for (int w = 1; w <= 2; ++w) {
    auto q = driver->Query("SELECT W_YTD FROM Warehouse WHERE W_ID = @w",
                           {{"w", Value::Int32(w)}});
    ASSERT_TRUE(q.ok());
    EXPECT_EQ(q->rows[0][0].i32(), 100) << "rollback leaked on warehouse " << w;
  }
}

// A participant that only read has nothing to vote on or redo: it commits
// without a vote and without a single WAL record, whether or not another
// shard wrote.
TEST_F(ShardTest, ReadOnlyParticipantAppendsNoRecord) {
  Build(2);
  auto driver = MakeDriver(sharded_.get());
  ASSERT_TRUE(
      driver->ExecuteDdl("CREATE TABLE Warehouse (W_ID INT, W_YTD INT)").ok());
  for (int w = 1; w <= 2; ++w) {
    ASSERT_TRUE(driver
                    ->Query("INSERT INTO Warehouse (W_ID, W_YTD) VALUES (@w, 0)",
                            {{"w", Value::Int32(w)}})
                    .ok());
  }
  auto records = [&](uint32_t s) {
    return sharded_->shard(s)->engine().wal().record_count();
  };
  const uint64_t two_pc = sharded_->two_phase_commits();
  const size_t before0 = records(0);
  const size_t before1 = records(1);

  // Reads on both shards only.
  uint64_t txn = driver->Begin();
  for (int w = 1; w <= 2; ++w) {
    auto r = driver->Query("SELECT W_YTD FROM Warehouse WHERE W_ID = @w",
                           {{"w", Value::Int32(w)}}, txn);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  ASSERT_TRUE(driver->Commit(txn).ok());
  EXPECT_EQ(records(0), before0);
  EXPECT_EQ(records(1), before1);

  // Shard 0 writes, shard 1 only reads: one WAL commit on shard 0, no 2PC.
  txn = driver->Begin();
  ASSERT_TRUE(driver
                  ->Query("UPDATE Warehouse SET W_YTD = @v WHERE W_ID = @w",
                          {{"v", Value::Int32(5)}, {"w", Value::Int32(1)}}, txn)
                  .ok());
  ASSERT_TRUE(driver
                  ->Query("SELECT W_YTD FROM Warehouse WHERE W_ID = @w",
                          {{"w", Value::Int32(2)}}, txn)
                  .ok());
  ASSERT_TRUE(driver->Commit(txn).ok());
  EXPECT_GT(records(0), before0);
  EXPECT_EQ(records(1), before1);
  EXPECT_EQ(sharded_->two_phase_commits(), two_pc);
}

// The AE invariant: each shard's enclave is its own unit of attestation.
// Restarting shard 1's enclave forces the driver to re-attest exactly that
// shard — the other shard's session (and its installed CEKs) stay valid.
TEST_F(ShardTest, PerShardAttestationIsolation) {
  Build(2);
  auto driver = MakeDriver(sharded_.get());
  ASSERT_TRUE(driver
                  ->ProvisionCmk("ShardCMK", vault_->name(), "kv/shard-enclave",
                                 /*enclave_enabled=*/true)
                  .ok());
  ASSERT_TRUE(driver->ProvisionCek("ShardCEK", "ShardCMK").ok());
  ASSERT_TRUE(driver
                  ->ExecuteDdl(
                      "CREATE TABLE Vault (W_ID INT, SECRET VARCHAR "
                      "ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = ShardCEK, "
                      "ENCRYPTION_TYPE = Randomized, ALGORITHM = "
                      "'AEAD_AES_256_CBC_HMAC_SHA_256'))")
                  .ok());
  for (int w = 1; w <= 2; ++w) {
    auto r = driver->Query(
        "INSERT INTO Vault (W_ID, SECRET) VALUES (@w, @s)",
        {{"w", Value::Int32(w)},
         {"s", Value::String("secret-" + std::to_string(w))}});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  // Parameter encryption is pure client-side work: no enclave needed yet.
  EXPECT_EQ(driver->attestations(), 0);

  auto probe = [&](int w) {
    return driver->Query(
        "SELECT W_ID FROM Vault WHERE SECRET = @s AND W_ID = @w",
        {{"s", Value::String("secret-" + std::to_string(w))},
         {"w", Value::Int32(w)}});
  };
  ASSERT_TRUE(probe(1).ok());
  ASSERT_TRUE(probe(2).ok());
  EXPECT_EQ(driver->attestations(), 2);  // cached sessions, no re-attest

  // Crash+restart shard 1 only: its enclave loses keys and sessions.
  auto rec = sharded_->RestartShard(1);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();

  // Shard 0 traffic is untouched — no re-attestation.
  auto q1 = probe(1);
  ASSERT_TRUE(q1.ok()) << q1.status().ToString();
  ASSERT_EQ(q1->rows.size(), 1u);
  EXPECT_EQ(driver->attestations(), 2);

  // Shard 1 traffic trips kSessionNotFound, and the driver re-attests
  // EXACTLY one shard (2 + 1 sessions across the driver's lifetime).
  auto q2 = probe(2);
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  ASSERT_EQ(q2->rows.size(), 1u);
  EXPECT_EQ(driver->attestations(), 3);
  EXPECT_GE(driver->retries(), 1);
}

// Differential check: the same seeded single-terminal TPC-C workload produces
// byte-identical table contents on a 4-shard database and a single engine.
TEST_F(ShardTest, ShardedTpccMatchesSingleShard) {
  tpcc::TpccConfig config;
  config.warehouses = 4;
  config.districts_per_warehouse = 2;
  config.customers_per_district = 8;
  config.items = 30;
  config.initial_orders_per_district = 4;
  config.encryption = tpcc::Encryption::kPlaintext;
  config.seed = 42;
  config.remote_pct = 25;  // plenty of cross-shard traffic

  const std::vector<std::string> tables = {
      "Warehouse", "District", "Customer", "History", "NewOrder",
      "Orders",    "OrderLine", "Item",    "Stock"};

  auto run = [&](server::SqlBackend* db, uint64_t* committed,
                 std::vector<std::vector<std::string>>* dump) {
    auto driver = MakeDriver(db);
    tpcc::TpccLoader loader(driver.get(), config);
    ASSERT_TRUE(loader.CreateSchema().ok());
    Status load = loader.Load();
    ASSERT_TRUE(load.ok()) << load.ToString();
    tpcc::TpccTerminal terminal(driver.get(), config, /*seed=*/7);
    for (int i = 0; i < 120; ++i) {
      Status st = terminal.RunOne();
      ASSERT_TRUE(st.ok()) << "txn " << i << ": " << st.ToString();
    }
    *committed = terminal.committed();
    for (const std::string& t : tables) {
      auto rows = driver->Query("SELECT * FROM " + t);
      ASSERT_TRUE(rows.ok()) << t << ": " << rows.status().ToString();
      std::vector<std::string> flat;
      flat.reserve(rows->rows.size());
      for (const auto& row : rows->rows) {
        std::string line;
        for (const auto& v : row) line += v.ToString() + "|";
        flat.push_back(std::move(line));
      }
      // Broadcast merges have no inter-shard order; canonicalize.
      std::sort(flat.begin(), flat.end());
      dump->push_back(std::move(flat));
    }
  };

  uint64_t single_committed = 0;
  std::vector<std::vector<std::string>> single_dump;
  {
    server::ServerOptions opts;
    Database single(opts, hgs_.get(), &image_);
    hgs_->RegisterTcgLog(single.platform()->tcg_log());
    run(&single, &single_committed, &single_dump);
  }

  Build(4);
  uint64_t sharded_committed = 0;
  std::vector<std::vector<std::string>> sharded_dump;
  run(sharded_.get(), &sharded_committed, &sharded_dump);
  EXPECT_GT(sharded_->two_phase_commits(), 0u)
      << "no cross-shard transactions exercised — differential test is weak";

  EXPECT_EQ(single_committed, sharded_committed);
  ASSERT_EQ(single_dump.size(), sharded_dump.size());
  for (size_t t = 0; t < tables.size(); ++t) {
    EXPECT_EQ(single_dump[t], sharded_dump[t])
        << "table " << tables[t] << " diverged between single and sharded";
  }
}

// ShardedDatabase::Stats() folds its shards' stats field by field: counters
// add, highwaters and the process-wide fsync count take the max, and the
// amortization ratios are computed from the merged counters (a ratio of
// sums, never an average of per-shard ratios). A durable, paged, encrypted
// TPC-C run on 2 shards makes every gauge below move.
TEST_F(ShardTest, MergedStatsFollowEachFieldsRule) {
  char templ[] = "/tmp/aedb_shard_stats_XXXXXX";
  ASSERT_NE(mkdtemp(templ), nullptr);
  const std::string dir = templ;
  server::ServerOptions base;
  base.data_dir = dir;
  base.engine.pool_pages = 16;  // well under the working set: evictions
  Build(2, base);

  tpcc::TpccConfig config;
  config.warehouses = 2;
  config.districts_per_warehouse = 2;
  config.customers_per_district = 8;
  config.items = 30;
  config.initial_orders_per_district = 4;
  config.encryption = tpcc::Encryption::kRandomized;
  config.remote_pct = 25;
  {
    auto driver = MakeDriver(sharded_.get());
    ASSERT_TRUE(driver
                    ->ProvisionCmk("TpccCMK", vault_->name(),
                                   "kv/shard-enclave", /*enclave_enabled=*/true)
                    .ok());
    ASSERT_TRUE(driver->ProvisionCek(config.cek_name, "TpccCMK").ok());
    tpcc::TpccLoader loader(driver.get(), config);
    ASSERT_TRUE(loader.CreateSchema().ok());
    Status load = loader.Load();
    ASSERT_TRUE(load.ok()) << load.ToString();
    tpcc::TpccTerminal terminal(driver.get(), config, /*seed=*/11);
    for (int i = 0; i < 60; ++i) {
      Status st = terminal.RunOne();
      ASSERT_TRUE(st.ok()) << "txn " << i << ": " << st.ToString();
    }
  }

  const server::DatabaseStats merged = sharded_->Stats();
  const server::DatabaseStats a = sharded_->shard(0)->Stats();
  const server::DatabaseStats b = sharded_->shard(1)->Stats();
  for (const server::DatabaseStats* s : {&a, &b}) {
    EXPECT_GT(s->enclave_transitions, 0u);
    EXPECT_GT(s->group_commit_batches, 0u);
    EXPECT_GT(s->pool_evictions, 0u);
    EXPECT_GT(s->pool_pinned_highwater, 0u);
  }
  EXPECT_GT(merged.fsyncs, 0u);

#define EXPECT_SUMMED(field) \
  EXPECT_EQ(merged.field, a.field + b.field) << #field " is not summed"
  EXPECT_SUMMED(enclave_calls);
  EXPECT_SUMMED(enclave_evals);
  EXPECT_SUMMED(enclave_comparisons);
  EXPECT_SUMMED(enclave_transitions);
  EXPECT_SUMMED(enclave_batch_evals);
  EXPECT_SUMMED(queries_admitted);
  EXPECT_SUMMED(queries_rejected);
  EXPECT_SUMMED(queries_expired);
  EXPECT_SUMMED(lock_waits_expired);
  EXPECT_SUMMED(torn_bytes_dropped);
  EXPECT_SUMMED(checkpoints_taken);
  EXPECT_SUMMED(wal_bytes);
  EXPECT_SUMMED(wal_file_errors);
  EXPECT_SUMMED(pool_hits);
  EXPECT_SUMMED(pool_misses);
  EXPECT_SUMMED(pool_evictions);
  EXPECT_SUMMED(pool_writebacks);
  EXPECT_SUMMED(group_commit_batches);
  EXPECT_SUMMED(commit_sync_requests);
#undef EXPECT_SUMMED

#define EXPECT_MAXED(field) \
  EXPECT_EQ(merged.field, std::max(a.field, b.field)) << #field " is not a max"
  EXPECT_MAXED(fsyncs);
  EXPECT_MAXED(pool_pinned_highwater);
#undef EXPECT_MAXED

  const double vpt =
      static_cast<double>(a.enclave_evals + b.enclave_evals +
                          a.enclave_comparisons + b.enclave_comparisons) /
      static_cast<double>(a.enclave_transitions + b.enclave_transitions);
  EXPECT_DOUBLE_EQ(merged.values_per_transition(), vpt);
  const double cpf =
      static_cast<double>(a.commit_sync_requests + b.commit_sync_requests) /
      static_cast<double>(a.group_commit_batches + b.group_commit_batches);
  EXPECT_DOUBLE_EQ(merged.commits_per_fsync(), cpf);
  // Where the shards' ratios differ and their weights differ, the ratio of
  // sums is not the mean of the ratios; the merge must not average.
  if (a.values_per_transition() != b.values_per_transition() &&
      a.enclave_transitions != b.enclave_transitions) {
    EXPECT_NE(merged.values_per_transition(),
              (a.values_per_transition() + b.values_per_transition()) / 2);
  }

  sharded_.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace aedb
