#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "client/driver.h"
#include "crypto/drbg.h"
#include "server/database.h"

namespace aedb::server {
namespace {

using client::Driver;
using client::DriverOptions;
using types::EncKind;
using types::TypeId;
using types::Value;

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    vault_ = std::make_unique<keys::InMemoryKeyVault>();
    ASSERT_TRUE(vault_->CreateKey("kv/a", 1024).ok());
    ASSERT_TRUE(registry_.Register(vault_.get()).ok());
    crypto::HmacDrbg drbg(crypto::SecureRandom(48),
                          Slice(std::string_view("server-test")));
    author_key_ = crypto::GenerateRsaKey(1024, &drbg);
    image_ = enclave::EnclaveImage::MakeEsImage(1, author_key_);
    hgs_ = std::make_unique<attestation::HostGuardianService>();
  }

  void StartServer(ServerOptions opts = ServerOptions{}) {
    db_ = std::make_unique<Database>(opts, hgs_.get(), &image_);
    if (db_->platform() != nullptr) {
      hgs_->RegisterTcgLog(db_->platform()->tcg_log());
    }
  }

  std::unique_ptr<Driver> MakeDriver(DriverOptions opts = DriverOptions{}) {
    if (opts.enclave_policy.trusted_author_id.empty()) {
      opts.enclave_policy.trusted_author_id = image_.AuthorId();
    }
    return std::make_unique<Driver>(db_.get(), &registry_,
                                    hgs_->signing_public(), opts);
  }

  void ProvisionSchema(Driver* driver) {
    ASSERT_TRUE(driver->ProvisionCmk("CMK", vault_->name(), "kv/a", true).ok());
    ASSERT_TRUE(driver->ProvisionCek("CEK", "CMK").ok());
    ASSERT_TRUE(driver
                    ->ExecuteDdl(
                        "CREATE TABLE T (id INT, secret VARCHAR(20) ENCRYPTED "
                        "WITH (COLUMN_ENCRYPTION_KEY = CEK, ENCRYPTION_TYPE = "
                        "Randomized, ALGORITHM = "
                        "'AEAD_AES_256_CBC_HMAC_SHA_256'), plain INT)")
                    .ok());
  }

  std::unique_ptr<keys::InMemoryKeyVault> vault_;
  keys::KeyProviderRegistry registry_;
  crypto::RsaPrivateKey author_key_;
  enclave::EnclaveImage image_;
  std::unique_ptr<attestation::HostGuardianService> hgs_;
  std::unique_ptr<Database> db_;
};

TEST_F(ServerTest, DescribeReportsParameterEncryption) {
  StartServer();
  auto driver = MakeDriver();
  ProvisionSchema(driver.get());
  auto describe = db_->DescribeParameterEncryption(
      "SELECT id FROM T WHERE secret = @s AND plain = @p", Slice());
  ASSERT_TRUE(describe.ok()) << describe.status().ToString();
  ASSERT_EQ(describe->params.size(), 2u);
  EXPECT_EQ(describe->params[0].name, "s");
  EXPECT_TRUE(describe->params[0].enc.is_encrypted());
  EXPECT_EQ(describe->params[0].enc.kind, EncKind::kRandomized);
  EXPECT_EQ(describe->params[0].type, TypeId::kString);
  EXPECT_FALSE(describe->params[1].enc.is_encrypted());
  EXPECT_TRUE(describe->requires_enclave);
  ASSERT_EQ(describe->keys.size(), 1u);
  EXPECT_EQ(describe->keys[0].cmk.name, "CMK");
  // No client DH key supplied: no attestation material.
  EXPECT_FALSE(describe->attestation_included);
}

TEST_F(ServerTest, DescribeIncludesAttestationWhenDhSupplied) {
  StartServer();
  auto driver = MakeDriver();
  ProvisionSchema(driver.get());
  crypto::HmacDrbg drbg(crypto::SecureRandom(48), Slice(std::string_view("x")));
  auto dh = crypto::GenerateDhKeyPair(&drbg);
  auto describe = db_->DescribeParameterEncryption(
      "SELECT id FROM T WHERE secret = @s", crypto::DhPublicKeyBytes(dh));
  ASSERT_TRUE(describe.ok());
  EXPECT_TRUE(describe->attestation_included);
  EXPECT_GT(describe->attestation.session_id, 0u);
}

TEST_F(ServerTest, ForcedEncryptionDefeatsLyingServer) {
  StartServer();
  auto setup = MakeDriver();
  ProvisionSchema(setup.get());
  // The application knows "plain" holds sensitive data and forces it; the
  // server (honestly) describes it as plaintext -> the driver fails closed.
  DriverOptions opts;
  opts.force_encrypted_params = {"p"};
  auto driver = MakeDriver(opts);
  auto r = driver->Query("SELECT id FROM T WHERE plain = @p",
                         {{"p", Value::Int32(1)}});
  EXPECT_TRUE(r.status().IsSecurityError()) << r.status().ToString();
}

TEST_F(ServerTest, UntrustedKeyPathRejected) {
  StartServer();
  auto setup = MakeDriver();
  ProvisionSchema(setup.get());
  DriverOptions opts;
  opts.trusted_key_paths = {"kv/some-other-path"};
  auto driver = MakeDriver(opts);
  auto r = driver->Query("INSERT INTO T (id, secret, plain) VALUES (@i, @s, @p)",
                         {{"i", Value::Int32(1)},
                          {"s", Value::String("x")},
                          {"p", Value::Int32(1)}});
  EXPECT_TRUE(r.status().IsSecurityError()) << r.status().ToString();
}

TEST_F(ServerTest, ExecuteNamedValidatesParameters) {
  StartServer();
  auto driver = MakeDriver();
  ProvisionSchema(driver.get());
  EXPECT_FALSE(db_->ExecuteNamed("SELECT id FROM T WHERE plain = @p",
                                 {{"nope", Value::Int32(1)}})
                   .ok());
  EXPECT_FALSE(db_->ExecuteNamed("SELECT id FROM T WHERE plain = @p", {}).ok());
}

TEST_F(ServerTest, DdlAndDmlEntryPointsAreDistinct) {
  StartServer();
  auto driver = MakeDriver();
  ProvisionSchema(driver.get());
  EXPECT_FALSE(db_->ExecuteDdl("SELECT id FROM T WHERE plain = 1").ok());
  EXPECT_FALSE(db_->Execute("CREATE TABLE X (a INT)", {}).ok());
}

TEST_F(ServerTest, PlanCacheAvoidsRebinding) {
  StartServer();
  auto driver = MakeDriver();
  ProvisionSchema(driver.get());
  for (int i = 0; i < 3; ++i) {
    auto r = db_->ExecuteNamed("SELECT id FROM T WHERE plain = @p",
                               {{"p", Value::Int32(i)}});
    ASSERT_TRUE(r.ok());
  }
  // Only sp_describe counts round trips; straight execution should not call
  // the describe path at all.
  EXPECT_EQ(db_->describe_calls(), 0u);
}

// DDL runs alongside queries and flushes the plan cache. A statement still
// executing keeps its plan and compiled programs alive across the flush, and
// every answer stays correct while plans are rebound again and again.
TEST_F(ServerTest, QueriesStayCorrectUnderConcurrentDdl) {
  StartServer();
  auto driver = MakeDriver();
  ProvisionSchema(driver.get());
  constexpr int kRows = 8;
  for (int i = 0; i < kRows; ++i) {
    auto ins = driver->Query(
        "INSERT INTO T (id, secret, plain) VALUES (@i, @s, @p)",
        {{"i", Value::Int32(i)},
         {"s", Value::String("secret-" + std::to_string(i))},
         {"p", Value::Int32(i)}});
    ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  }

  // DDL loops for as long as the reads run, so every read overlaps a flush.
  std::atomic<bool> reads_done{false};
  Status ddl_status;
  int ddl_rounds = 0;
  std::thread ddl([&] {
    while (!reads_done && ddl_status.ok()) {
      std::string table = "D" + std::to_string(ddl_rounds++);
      ddl_status = db_->ExecuteDdl("CREATE TABLE " + table + " (a INT)");
      if (ddl_status.ok()) {
        ddl_status = db_->ExecuteDdl("CREATE INDEX ix_" + table + " ON " +
                                     table + " (a)");
      }
    }
  });

  std::string failure;
  for (int q = 0; q < 200 && failure.empty(); ++q) {
    int want = q % kRows;
    auto r = driver->Query(
        "SELECT id, plain FROM T WHERE secret = @s AND plain >= @p",
        {{"s", Value::String("secret-" + std::to_string(want))},
         {"p", Value::Int32(0)}});
    if (!r.ok()) {
      failure = r.status().ToString();
    } else if (r->rows.size() != 1 || r->rows[0][0].i32() != want ||
               r->rows[0][1].i32() != want) {
      failure = "wrong answer for secret-" + std::to_string(want);
    }
  }
  reads_done = true;
  ddl.join();
  EXPECT_TRUE(failure.empty()) << failure;
  EXPECT_TRUE(ddl_status.ok()) << ddl_status.ToString();
  EXPECT_GT(ddl_rounds, 0);
}

TEST_F(ServerTest, RestartDropsSessionsAndDriverRecovers) {
  StartServer();
  auto driver = MakeDriver();
  ProvisionSchema(driver.get());
  auto ins = driver->Query("INSERT INTO T (id, secret, plain) VALUES (@i, @s, @p)",
                           {{"i", Value::Int32(1)},
                            {"s", Value::String("hideme")},
                            {"p", Value::Int32(7)}});
  ASSERT_TRUE(ins.ok());
  auto q1 = driver->Query("SELECT id FROM T WHERE secret = @s",
                          {{"s", Value::String("hideme")}});
  ASSERT_TRUE(q1.ok());
  uint64_t old_session = driver->session_id();

  auto recovery = db_->Restart();
  ASSERT_TRUE(recovery.ok());
  // The driver transparently re-attests and re-installs keys.
  auto q2 = driver->Query("SELECT id FROM T WHERE secret = @s",
                          {{"s", Value::String("hideme")}});
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  EXPECT_EQ(q2->rows.size(), 1u);
  EXPECT_NE(driver->session_id(), old_session);
}

TEST_F(ServerTest, InvalidatedIndexFallsBackToScan) {
  StartServer();
  auto driver = MakeDriver();
  ProvisionSchema(driver.get());
  ASSERT_TRUE(driver->ExecuteDdl("CREATE INDEX idx_p ON T (plain)").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(driver
                    ->Query("INSERT INTO T (id, secret, plain) VALUES "
                            "(@i, @s, @p)",
                            {{"i", Value::Int32(i)},
                             {"s", Value::String("v" + std::to_string(i))},
                             {"p", Value::Int32(i % 3)}})
                    .ok());
  }
  ASSERT_TRUE(db_->InvalidateIndexByName("idx_p").ok());
  // Index unusable, but scans still answer correctly.
  auto r = driver->Query("SELECT COUNT(*) FROM T WHERE plain = @p",
                         {{"p", Value::Int32(1)}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].i64(), 3);
}

TEST_F(ServerTest, ForwardingToUnknownSessionFails) {
  StartServer();
  EXPECT_FALSE(db_->ForwardKeysToEnclave(999, 0, Bytes{1, 2, 3}).ok());
  EXPECT_FALSE(db_->ForwardEncryptionAuthorization(999, 0, Bytes{1}).ok());
}

TEST_F(ServerTest, GetKeyDescriptionUnknownId) {
  StartServer();
  EXPECT_TRUE(db_->GetKeyDescription(42).status().IsNotFound());
}

TEST_F(ServerTest, TdsCaptureShowsMetadataNotValues) {
  ServerOptions opts;
  opts.capture_tds = true;
  StartServer(opts);
  auto driver = MakeDriver();
  ProvisionSchema(driver.get());
  auto ins = driver->Query("INSERT INTO T (id, secret, plain) VALUES (@i, @s, @p)",
                           {{"i", Value::Int32(1)},
                            {"s", Value::String("THE-SECRET-VALUE")},
                            {"p", Value::Int32(7)}});
  ASSERT_TRUE(ins.ok());
  std::string_view wire(
      reinterpret_cast<const char*>(db_->tds_capture().last_request.data()),
      db_->tds_capture().last_request.size());
  // Metadata (the statement text) is visible — AE does not hide metadata
  // (paper §3.2) — but the parameter value crossed encrypted.
  EXPECT_NE(wire.find("INSERT INTO T"), std::string_view::npos);
  EXPECT_EQ(wire.find("THE-SECRET-VALUE"), std::string_view::npos);
}

TEST_F(ServerTest, WrongBootConfigurationFailsAttestation) {
  ServerOptions opts;
  opts.boot_configuration = "rootkitted-boot-chain";
  // HGS never whitelisted this configuration.
  db_ = std::make_unique<Database>(opts, hgs_.get(), &image_);
  auto driver = MakeDriver();
  ASSERT_TRUE(driver->ProvisionCmk("CMK", vault_->name(), "kv/a", true).ok());
  ASSERT_TRUE(driver->ProvisionCek("CEK", "CMK").ok());
  ASSERT_TRUE(driver
                  ->ExecuteDdl(
                      "CREATE TABLE T (id INT, secret INT ENCRYPTED WITH ("
                      "COLUMN_ENCRYPTION_KEY = CEK, ENCRYPTION_TYPE = "
                      "Randomized, ALGORITHM = "
                      "'AEAD_AES_256_CBC_HMAC_SHA_256'))")
                  .ok());
  auto r = driver->Query("SELECT id FROM T WHERE secret = @s",
                         {{"s", Value::Int32(1)}});
  EXPECT_TRUE(r.status().IsSecurityError()) << r.status().ToString();
}

TEST_F(ServerTest, NoEnclaveServerRejectsEnclaveQueries) {
  ServerOptions opts;
  opts.enable_enclave = false;
  StartServer(opts);
  auto driver = MakeDriver();
  ASSERT_TRUE(driver->ProvisionCmk("CMK", vault_->name(), "kv/a", true).ok());
  ASSERT_TRUE(driver->ProvisionCek("CEK", "CMK").ok());
  ASSERT_TRUE(driver
                  ->ExecuteDdl(
                      "CREATE TABLE T (id INT, secret INT ENCRYPTED WITH ("
                      "COLUMN_ENCRYPTION_KEY = CEK, ENCRYPTION_TYPE = "
                      "Randomized, ALGORITHM = "
                      "'AEAD_AES_256_CBC_HMAC_SHA_256'))")
                  .ok());
  auto r = driver->Query("SELECT id FROM T WHERE secret = @s",
                         {{"s", Value::Int32(1)}});
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace aedb::server
