#include "deployment.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <unordered_set>

#include "crypto/drbg.h"
#include "net/socket_transport.h"

namespace aebench {

using aedb::Result;
using aedb::Status;
using aedb::types::Value;

namespace {

constexpr const char* kVaultKeyPath = "kv/aebench";
constexpr const char* kCmkName = "AebenchCMK";

}  // namespace

Result<std::unique_ptr<Deployment>> Deployment::Create(
    const DeploymentSpec& spec, const std::string& data_dir) {
  std::unique_ptr<Deployment> d(new Deployment());
  d->spec_ = spec;
  d->data_dir_ = data_dir;
  std::error_code ec;
  if (!std::filesystem::create_directories(data_dir, ec)) {
    return Status::Internal("cannot create data dir " + data_dir);
  }
  AEDB_RETURN_IF_ERROR(d->Build());
  return d;
}

Status Deployment::Build() {
  using Clock = std::chrono::steady_clock;
  auto since = [](Clock::time_point t) {
    return std::chrono::duration<double>(Clock::now() - t).count();
  };
  Clock::time_point t0 = Clock::now();
  vault_ = std::make_unique<aedb::keys::InMemoryKeyVault>();
  AEDB_RETURN_IF_ERROR(vault_->CreateKey(kVaultKeyPath, 1024));
  AEDB_RETURN_IF_ERROR(registry_.Register(vault_.get()));
  aedb::crypto::HmacDrbg drbg(aedb::crypto::SecureRandom(48),
                              aedb::Slice(std::string_view("aebench-author")));
  author_key_ = aedb::crypto::GenerateRsaKey(1024, &drbg);
  image_ = aedb::enclave::EnclaveImage::MakeEsImage(1, author_key_);
  hgs_ = std::make_unique<aedb::attestation::HostGuardianService>();
  keys_s_ = since(t0);
  t0 = Clock::now();

  aedb::server::ShardedOptions opts;
  opts.shards = static_cast<uint32_t>(spec_.tpcc.warehouses);
  opts.base.data_dir = data_dir_;
  opts.base.enclave_config.transition_cost_ns = kEnclaveTransitionNs;
  opts.base.engine.lock_timeout = std::chrono::milliseconds(100);
  opts.base.engine.pool_pages = spec_.pool_pages;
  db_ = std::make_unique<aedb::server::ShardedDatabase>(std::move(opts),
                                                        hgs_.get(), &image_);
  for (uint32_t i = 0; i < db_->shard_count(); ++i) {
    hgs_->RegisterTcgLog(db_->shard(i)->platform()->tcg_log());
  }
  AEDB_RETURN_IF_ERROR(db_->Open());
  open_s_ = since(t0);
  t0 = Clock::now();
  const double cpu0 = ProcessCpuSeconds();

  backend_ = std::make_unique<TracingBackend>(db_.get());
  server_ = std::make_unique<aedb::net::Server>(backend_.get(),
                                                aedb::net::ServerConfig{});
  AEDB_RETURN_IF_ERROR(server_->Start());

  std::unique_ptr<aedb::client::Driver> loader;
  AEDB_ASSIGN_OR_RETURN(loader, Connect());
  const bool encrypted =
      spec_.tpcc.encryption != aedb::tpcc::Encryption::kPlaintext;
  if (encrypted) {
    bool enclave = spec_.tpcc.encryption == aedb::tpcc::Encryption::kRandomized;
    AEDB_RETURN_IF_ERROR(
        loader->ProvisionCmk(kCmkName, vault_->name(), kVaultKeyPath, enclave));
    AEDB_RETURN_IF_ERROR(loader->ProvisionCek(spec_.tpcc.cek_name, kCmkName));
  }
  aedb::tpcc::TpccLoader tpcc_loader(loader.get(), spec_.tpcc);
  AEDB_RETURN_IF_ERROR(tpcc_loader.CreateSchema());
  AEDB_RETURN_IF_ERROR(tpcc_loader.Load());
  if (encrypted) {
    // An unpinned encrypted predicate broadcasts to every shard, so the
    // loader's driver attests each shard's enclave and installs the CEK.
    auto probe = loader->Query(
        "SELECT C_ID FROM Customer WHERE C_LAST = @last",
        {{"last", Value::String(aedb::tpcc::LastName(0))}});
    if (!probe.ok()) return probe.status();
    if (loader->attestations() < static_cast<int64_t>(db_->shard_count())) {
      return Status::Internal("not every shard was attested");
    }
  }
  load_s_ = since(t0);
  load_cpu_s_ = ProcessCpuSeconds() - cpu0;
  return Status::OK();
}

Result<std::unique_ptr<aedb::client::Driver>> Deployment::Connect(
    TracingTransport** transport) {
  aedb::net::SocketTransport::Options topts;
  topts.port = server_->port();
  std::unique_ptr<aedb::net::SocketTransport> socket;
  AEDB_ASSIGN_OR_RETURN(socket, aedb::net::SocketTransport::Connect(topts));
  auto traced = std::make_unique<TracingTransport>(std::move(socket));
  if (transport != nullptr) *transport = traced.get();
  aedb::client::DriverOptions opts;
  opts.column_encryption_enabled = spec_.ae_connection;
  opts.cache_describe_results = spec_.cache_describe;
  opts.enclave_policy.trusted_author_id = image_.AuthorId();
  return std::make_unique<aedb::client::Driver>(
      std::move(traced), &registry_, hgs_->signing_public(), opts);
}

void Deployment::Stop() {
  if (stopped_) return;
  stopped_ = true;
  if (server_) server_->Stop();
  if (db_) (void)db_->Shutdown();
}

Deployment::~Deployment() {
  Stop();
  server_.reset();
  backend_.reset();
  db_.reset();
  std::error_code ec;
  std::filesystem::remove_all(data_dir_, ec);
}

size_t Deployment::CustomerPages(uint32_t shard) {
  aedb::server::Database* s = db_->shard(shard);
  auto def = s->catalog().GetTable("Customer");
  if (!def.ok()) return 0;
  aedb::storage::HeapTable* table = s->engine().table((*def)->id);
  return table == nullptr ? 0 : table->page_count();
}

TpccCheck CheckTpcc(Deployment* d) {
  TpccCheck out;
  auto note = [&](uint64_t* counter, const std::string& what) {
    ++*counter;
    if (out.detail.empty()) out.detail = what;
  };
  auto driver = d->Connect();
  if (!driver.ok()) {
    note(&out.wrong_results, "connect: " + driver.status().ToString());
    return out;
  }
  aedb::client::Driver* client = driver->get();

  // Router view against the shard engines, read directly in-process.
  for (const char* q :
       {"SELECT COUNT(*) FROM Orders", "SELECT COUNT(*) FROM OrderLine",
        "SELECT COUNT(*) FROM NewOrder", "SELECT COUNT(*) FROM History"}) {
    auto routed = client->Query(q);
    int64_t direct = 0;
    bool direct_ok = true;
    for (uint32_t s = 0; s < d->db()->shard_count(); ++s) {
      auto r = d->db()->shard(s)->Execute(q, {});
      if (!r.ok() || r->rows.empty()) {
        direct_ok = false;
        break;
      }
      direct += r->rows[0][0].AsInt64();
    }
    if (!routed.ok() || routed->rows.empty() || !direct_ok ||
        routed->rows[0][0].AsInt64() != direct) {
      note(&out.wrong_results, std::string("router/shard mismatch: ") + q);
    }
  }

  const auto& cfg = d->spec().tpcc;
  for (int w = 1; w <= cfg.warehouses; ++w) {
    const std::string where = " in warehouse " + std::to_string(w);
    auto wh = client->Query("SELECT W_YTD FROM Warehouse WHERE W_ID = @w",
                            {{"w", Value::Int32(w)}});
    auto dist = client->Query(
        "SELECT D_ID, D_YTD, D_NEXT_O_ID FROM District WHERE D_W_ID = @w",
        {{"w", Value::Int32(w)}});
    if (!wh.ok() || wh->rows.size() != 1 || !dist.ok() ||
        dist->rows.size() != static_cast<size_t>(cfg.districts_per_warehouse)) {
      note(&out.wrong_results, "cannot read" + where);
      continue;
    }
    double d_ytd = 0;
    for (const auto& row : dist->rows) {
      d_ytd += row[1].AsDouble();
      auto orders = client->Query(
          "SELECT MAX(O_ID), COUNT(*) FROM Orders WHERE O_W_ID = @w AND "
          "O_D_ID = @d",
          {{"w", Value::Int32(w)}, {"d", row[0]}});
      if (!orders.ok() || orders->rows.size() != 1) {
        note(&out.wrong_results, "cannot read orders" + where);
        continue;
      }
      const int64_t next = row[2].AsInt64() - 1;
      const int64_t max_id = orders->rows[0][0].AsInt64();
      const int64_t count = orders->rows[0][1].AsInt64();
      if (max_id != next) {
        note(&out.consistency_violations,
             "D_NEXT_O_ID - 1 = " + std::to_string(next) + " but MAX(O_ID) = " +
                 std::to_string(max_id) + " and COUNT = " +
                 std::to_string(count) + where + " district " +
                 std::to_string(row[0].AsInt64()));
      }
    }
    // Both sides start at 300000 and every Payment adds its amount to each.
    if (std::fabs(wh->rows[0][0].AsDouble() - d_ytd) > 1e-3) {
      note(&out.consistency_violations, "W_YTD != sum(D_YTD)" + where);
    }
  }
  return out;
}

double ProcessCpuSeconds() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

std::vector<std::string> LoaderLastNames(int customers_per_district) {
  std::vector<std::string> names;
  for (int c = 1; c <= customers_per_district; ++c) {
    names.push_back(aedb::tpcc::LastName(c - 1));
  }
  return names;
}

uint64_t CountPlaintextHits(const std::string& dir,
                            const std::vector<std::string>& last_names) {
  std::unordered_set<std::string> names(last_names.begin(), last_names.end());
  size_t min_len = SIZE_MAX, max_len = 0;
  for (const auto& n : names) {
    min_len = std::min(min_len, n.size());
    max_len = std::max(max_len, n.size());
  }
  const char* kPrefixes[] = {"First", "Street", "City"};
  uint64_t hits = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Loader last names are runs of upper-case syllables.
    for (size_t i = 0; i < data.size();) {
      if (data[i] < 'A' || data[i] > 'Z') {
        ++i;
        continue;
      }
      size_t j = i;
      while (j < data.size() && data[j] >= 'A' && data[j] <= 'Z') ++j;
      for (size_t s = i; s + min_len <= j; ++s) {
        for (size_t len = min_len; len <= max_len && s + len <= j; ++len) {
          if (names.count(data.substr(s, len)) != 0) ++hits;
        }
      }
      i = j;
    }
    for (const char* prefix : kPrefixes) {
      size_t plen = std::strlen(prefix);
      for (size_t pos = data.find(prefix); pos != std::string::npos;
           pos = data.find(prefix, pos + 1)) {
        if (pos + plen < data.size() && data[pos + plen] >= '0' &&
            data[pos + plen] <= '9') {
          ++hits;
        }
      }
    }
  }
  return hits;
}

}  // namespace aebench
