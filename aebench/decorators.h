// Benchmark-side decorators over the program's public interfaces. They
// forward every call unchanged and, when tracing is on, record one span per
// call. TracingTransport also counts the calls it forwards (always on: a
// counter bump per call), which gives statement and round-trip counts
// without tracing.
#ifndef AEBENCH_DECORATORS_H_
#define AEBENCH_DECORATORS_H_

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "client/transport.h"
#include "server/database.h"
#include "trace.h"

namespace aebench {

/// Counts of transport calls by kind. One transport per client thread, so
/// the counters are written by one thread and read after it joins.
struct CallCounts {
  uint64_t executes = 0;
  uint64_t describes = 0;
  uint64_t round_trips = 0;
};

/// Wraps the client::Transport a client::Driver talks through.
class TracingTransport : public aedb::client::Transport {
 public:
  explicit TracingTransport(std::unique_ptr<aedb::client::Transport> inner)
      : inner_(std::move(inner)) {}

  const CallCounts& counts() const { return counts_; }

  bool healthy() const override { return inner_->healthy(); }
  void set_attempt(uint32_t attempt) override { inner_->set_attempt(attempt); }
  void set_deadline(uint32_t remaining_ms) override {
    inner_->set_deadline(remaining_ms);
  }

  aedb::Result<uint64_t> BeginTransaction() override {
    return Call(SpanKind::kClientBegin, 0,
                [&] { return inner_->BeginTransaction(); });
  }
  aedb::Status CommitTransaction(uint64_t txn) override {
    return Call(SpanKind::kClientCommit, txn,
                [&] { return inner_->CommitTransaction(txn); });
  }
  aedb::Status RollbackTransaction(uint64_t txn) override {
    return Call(SpanKind::kClientRollback, txn,
                [&] { return inner_->RollbackTransaction(txn); });
  }
  aedb::Status ExecuteDdl(const std::string& sql,
                          uint64_t session_id) override {
    return Call(SpanKind::kClientOther, 0,
                [&] { return inner_->ExecuteDdl(sql, session_id); });
  }
  aedb::Result<aedb::sql::ResultSet> Execute(
      const std::string& sql, const std::vector<aedb::types::Value>& params,
      uint64_t txn, uint64_t session_id) override {
    ++counts_.executes;
    return Call(SpanKind::kClientExecute, txn, [&] {
      return inner_->Execute(sql, params, txn, session_id);
    });
  }
  aedb::Result<aedb::sql::ResultSet> ExecuteNamed(
      const std::string& sql, const aedb::client::NamedParams& params,
      uint64_t txn, uint64_t session_id) override {
    ++counts_.executes;
    return Call(SpanKind::kClientExecute, txn, [&] {
      return inner_->ExecuteNamed(sql, params, txn, session_id);
    });
  }
  aedb::Result<aedb::server::DescribeResult> DescribeParameterEncryption(
      const std::string& sql, aedb::Slice client_dh_public) override {
    ++counts_.describes;
    return Call(SpanKind::kClientDescribe, 0, [&] {
      return inner_->DescribeParameterEncryption(sql, client_dh_public);
    });
  }
  aedb::Result<aedb::server::DescribeResult> Attest(
      aedb::Slice client_dh_public) override {
    return Call(SpanKind::kClientOther, 0,
                [&] { return inner_->Attest(client_dh_public); });
  }
  uint32_t shard_count() const override { return inner_->shard_count(); }
  aedb::Result<aedb::server::DescribeResult> AttestShard(
      uint32_t shard, aedb::Slice client_dh_public) override {
    return Call(SpanKind::kClientOther, 0, [&] {
      return inner_->AttestShard(shard, client_dh_public);
    });
  }
  aedb::Status ForwardKeysToShard(uint32_t shard, uint64_t session_id,
                                  uint64_t nonce, aedb::Slice sealed) override {
    return Call(SpanKind::kClientOther, 0, [&] {
      return inner_->ForwardKeysToShard(shard, session_id, nonce, sealed);
    });
  }
  aedb::Status ForwardAuthorizationToShard(uint32_t shard, uint64_t session_id,
                                           uint64_t nonce,
                                           aedb::Slice sealed) override {
    return Call(SpanKind::kClientOther, 0, [&] {
      return inner_->ForwardAuthorizationToShard(shard, session_id, nonce,
                                                 sealed);
    });
  }
  aedb::Status ExecuteDdlOnShard(uint32_t shard, const std::string& sql,
                                 uint64_t session_id) override {
    return Call(SpanKind::kClientOther, 0, [&] {
      return inner_->ExecuteDdlOnShard(shard, sql, session_id);
    });
  }
  aedb::Result<aedb::server::KeyDescription> GetKeyDescription(
      uint32_t cek_id) override {
    return Call(SpanKind::kClientOther, 0,
                [&] { return inner_->GetKeyDescription(cek_id); });
  }
  aedb::Result<aedb::types::EncryptionType> ColumnEncryption(
      const std::string& table, const std::string& column) override {
    return Call(SpanKind::kClientOther, 0,
                [&] { return inner_->ColumnEncryption(table, column); });
  }
  aedb::Result<aedb::keys::CmkInfo> GetCmk(const std::string& name) override {
    return Call(SpanKind::kClientOther, 0,
                [&] { return inner_->GetCmk(name); });
  }
  aedb::Result<uint32_t> CekIdByName(const std::string& name) override {
    return Call(SpanKind::kClientOther, 0,
                [&] { return inner_->CekIdByName(name); });
  }
  aedb::Status ForwardKeysToEnclave(uint64_t session_id, uint64_t nonce,
                                    aedb::Slice sealed) override {
    return Call(SpanKind::kClientOther, 0, [&] {
      return inner_->ForwardKeysToEnclave(session_id, nonce, sealed);
    });
  }
  aedb::Status ForwardEncryptionAuthorization(uint64_t session_id,
                                              uint64_t nonce,
                                              aedb::Slice sealed) override {
    return Call(SpanKind::kClientOther, 0, [&] {
      return inner_->ForwardEncryptionAuthorization(session_id, nonce, sealed);
    });
  }
  aedb::Status AlterColumnMetadataForClientTool(
      const std::string& table, const std::string& column,
      const aedb::sql::EncryptionSpec& enc) override {
    return Call(SpanKind::kClientOther, 0, [&] {
      return inner_->AlterColumnMetadataForClientTool(table, column, enc);
    });
  }

 private:
  template <typename Fn>
  auto Call(SpanKind kind, uint64_t txn, Fn&& fn) -> decltype(fn()) {
    ++counts_.round_trips;
    ScopedSpan span(kind, txn, ThreadTracing());
    return fn();
  }

  std::unique_ptr<aedb::client::Transport> inner_;
  CallCounts counts_;
};

/// Wraps the server::SqlBackend the net::Server executes requests against.
/// Spans record on the server's execution workers whenever the process-wide
/// tracer is enabled.
class TracingBackend : public aedb::server::SqlBackend {
 public:
  explicit TracingBackend(aedb::server::SqlBackend* inner) : inner_(inner) {}

  aedb::Status ExecuteDdl(const std::string& sql,
                          uint64_t session_id) override {
    return Call(SpanKind::kServerOther, 0,
                [&] { return inner_->ExecuteDdl(sql, session_id); });
  }
  aedb::Result<aedb::server::DescribeResult> DescribeParameterEncryption(
      const std::string& sql, aedb::Slice client_dh_public) override {
    return Call(SpanKind::kServerDescribe, 0, [&] {
      return inner_->DescribeParameterEncryption(sql, client_dh_public);
    });
  }
  uint64_t BeginTransaction() override {
    return Call(SpanKind::kServerBegin, 0,
                [&] { return inner_->BeginTransaction(); });
  }
  aedb::Status CommitTransaction(uint64_t txn) override {
    return Call(SpanKind::kServerCommit, txn,
                [&] { return inner_->CommitTransaction(txn); });
  }
  aedb::Status RollbackTransaction(uint64_t txn) override {
    return Call(SpanKind::kServerRollback, txn,
                [&] { return inner_->RollbackTransaction(txn); });
  }
  aedb::Result<aedb::sql::ResultSet> Execute(
      const std::string& sql, const std::vector<aedb::types::Value>& params,
      uint64_t txn, uint64_t session_id, uint32_t deadline_ms) override {
    return Call(SpanKind::kServerExecute, txn, [&] {
      return inner_->Execute(sql, params, txn, session_id, deadline_ms);
    });
  }
  aedb::Result<aedb::sql::ResultSet> ExecuteNamed(
      const std::string& sql,
      const std::vector<std::pair<std::string, aedb::types::Value>>& params,
      uint64_t txn, uint64_t session_id, uint32_t deadline_ms) override {
    return Call(SpanKind::kServerExecute, txn, [&] {
      return inner_->ExecuteNamed(sql, params, txn, session_id, deadline_ms);
    });
  }
  aedb::Result<aedb::server::KeyDescription> GetKeyDescription(
      uint32_t cek_id) override {
    return Call(SpanKind::kServerOther, 0,
                [&] { return inner_->GetKeyDescription(cek_id); });
  }
  aedb::Result<aedb::server::DescribeResult> Attest(
      aedb::Slice client_dh_public) override {
    return Call(SpanKind::kServerOther, 0,
                [&] { return inner_->Attest(client_dh_public); });
  }
  aedb::Result<aedb::types::EncryptionType> ColumnEncryption(
      const std::string& table, const std::string& column) override {
    return Call(SpanKind::kServerOther, 0,
                [&] { return inner_->ColumnEncryption(table, column); });
  }
  aedb::Status AlterColumnMetadataForClientTool(
      const std::string& table, const std::string& column,
      const aedb::sql::EncryptionSpec& enc) override {
    return Call(SpanKind::kServerOther, 0, [&] {
      return inner_->AlterColumnMetadataForClientTool(table, column, enc);
    });
  }
  aedb::Status ForwardKeysToEnclave(uint64_t session_id, uint64_t nonce,
                                    aedb::Slice sealed) override {
    return Call(SpanKind::kServerOther, 0, [&] {
      return inner_->ForwardKeysToEnclave(session_id, nonce, sealed);
    });
  }
  aedb::Status ForwardEncryptionAuthorization(uint64_t session_id,
                                              uint64_t nonce,
                                              aedb::Slice sealed) override {
    return Call(SpanKind::kServerOther, 0, [&] {
      return inner_->ForwardEncryptionAuthorization(session_id, nonce, sealed);
    });
  }
  aedb::sql::Catalog& catalog() override { return inner_->catalog(); }
  aedb::server::DatabaseStats Stats() const override {
    return inner_->Stats();
  }
  aedb::Status Open() override { return inner_->Open(); }
  aedb::Status Shutdown() override { return inner_->Shutdown(); }
  const aedb::server::RecoveryInfo& recovery_info() const override {
    return inner_->recovery_info();
  }
  aedb::Status SyncWals() override { return inner_->SyncWals(); }
  uint32_t shard_count() const override { return inner_->shard_count(); }
  aedb::Result<aedb::server::DescribeResult> AttestShard(
      uint32_t shard, aedb::Slice client_dh_public) override {
    return Call(SpanKind::kServerOther, 0, [&] {
      return inner_->AttestShard(shard, client_dh_public);
    });
  }
  aedb::Status ForwardKeysToShard(uint32_t shard, uint64_t session_id,
                                  uint64_t nonce, aedb::Slice sealed) override {
    return Call(SpanKind::kServerOther, 0, [&] {
      return inner_->ForwardKeysToShard(shard, session_id, nonce, sealed);
    });
  }
  aedb::Status ForwardAuthorizationToShard(uint32_t shard, uint64_t session_id,
                                           uint64_t nonce,
                                           aedb::Slice sealed) override {
    return Call(SpanKind::kServerOther, 0, [&] {
      return inner_->ForwardAuthorizationToShard(shard, session_id, nonce,
                                                 sealed);
    });
  }
  aedb::Status ExecuteDdlOnShard(uint32_t shard, const std::string& sql,
                                 uint64_t session_id) override {
    return Call(SpanKind::kServerOther, 0, [&] {
      return inner_->ExecuteDdlOnShard(shard, sql, session_id);
    });
  }

 private:
  template <typename Fn>
  auto Call(SpanKind kind, uint64_t txn, Fn&& fn) -> decltype(fn()) {
    ScopedSpan span(kind, txn, Tracer::Get().enabled());
    return fn();
  }

  aedb::server::SqlBackend* inner_;
};

}  // namespace aebench

#endif  // AEBENCH_DECORATORS_H_
