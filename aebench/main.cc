// aebench: the repository benchmark. Runs one workload against a fresh
// 4-shard deployment behind net::Server on loopback, validates every
// answer, and prints its metrics as JSON. See SPEC.md for the workloads,
// the metrics and what each layer metric is expected to move.
//
//   aebench --workload tpcc-rnd|tpcc-pt|lookup-rnd --seed N --seconds S
//           --trace 0|1 [--root DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same workload
// with tracing switched on in alternate slices and prints the per-layer
// metrics. The last stdout line is the result object; the line before it is
// a detail object with the per-workload metric names, sample counts and
// sizes.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "deployment.h"
#include "storage/buffer_pool.h"
#include "stats.h"
#include "trace.h"

namespace aebench {
namespace {

using aedb::Status;
using aedb::types::Value;
using Clock = std::chrono::steady_clock;

constexpr int kWarehouses = 4;       // = shards
constexpr int kClients = 4;          // threads, one connection each
constexpr int kSetupRepeats = 3;     // setup_s is the median of these
constexpr int kWarmupTxns = 20;      // per terminal, before measuring
constexpr int kWarmupLookups = 8;    // per lookup kind and connection
constexpr int kTickMs = 50;          // RSS sampling period in the window
constexpr int kTicksPerTraceSlice = 500 / kTickMs;  // tracing off/on
constexpr double kDrainS = 5.0;      // open-loop backlog drain cut-off

// lookup-rnd, fixed when the benchmark was defined: a quarter of the
// closed-loop capacity of 4 connections on the defining host (median of
// three 10 s runs: 2652/s), so the rate stays below capacity when the host
// runs at half speed (see SPEC.md). Never retune.
constexpr double kLookupRatePerS = 660.0;
constexpr double kLookupLimitMs = 10.0;
constexpr int kLookupCustomersPerDistrict = 150;
constexpr uint64_t kLookupPoolPages = 32;  // per shard

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

struct Workload {
  std::string name;
  DeploymentSpec spec;
  bool lookups = false;  // open-loop lookups instead of the TPC-C mix
};

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* w) {
  w->name = name;
  auto& t = w->spec.tpcc;
  t.warehouses = kWarehouses;
  t.districts_per_warehouse = 10;
  t.customers_per_district = 30;
  t.remote_pct = 10;
  // With the TpccConfig default of 100 items, New-Orders deadlock on shared
  // stock rows and the 100 ms lock timeouts take most of the terminals' time.
  t.items = 1000;
  t.seed = seed;
  if (name == "tpcc-rnd") {
    t.encryption = aedb::tpcc::Encryption::kRandomized;
    w->spec.ae_connection = true;
    w->spec.cache_describe = false;  // the paper's measured SQL-AE setup
  } else if (name == "tpcc-pt") {
    t.encryption = aedb::tpcc::Encryption::kPlaintext;
    w->spec.ae_connection = false;
  } else if (name == "lookup-rnd") {
    t.encryption = aedb::tpcc::Encryption::kRandomized;
    t.customers_per_district = kLookupCustomersPerDistrict;
    w->spec.ae_connection = true;
    w->spec.cache_describe = true;
    w->spec.pool_pages = kLookupPoolPages;
    w->lookups = true;
  } else {
    return false;
  }
  return true;
}

/// Counters read outside the op loop, before and after the window.
struct Counters {
  aedb::server::DatabaseStats db;
  aedb::net::ServerStatsSnapshot net;
  uint64_t two_pc = 0;
};

Counters ReadCounters(Deployment* d) {
  return {d->db()->Stats(), d->server()->SnapshotStats(),
          d->db()->two_phase_commits()};
}

/// Shared start/stop signalling between the main thread and the clients.
struct RunControl {
  bool trace = false;
  double seconds = 0;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  Clock::time_point start;  // written before go; read-only after

  void ReadyAndWait() {
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
  }
};

enum LookupKind { kByName = 0, kById = 1, kRange = 2, kLookupKinds = 3 };
const char* kLookupKindNames[] = {"by_name", "by_id", "range"};

/// One client thread's view of the measured window.
struct ClientTally {
  TxnAccount txn;  // TPC-C
  SloAccount slo;  // lookups
  uint64_t warmup_failures = 0;
  // Times are seconds into the window: completion, or scheduled arrival for
  // lookup outcomes.
  std::vector<Sample> latency;      // ms; committed txns / correct lookups
  std::vector<Sample> outcome;      // 1 = committed / correct answer
  std::vector<double> good_s;       // completions: committed / within limit
  std::vector<double> op_ms[2];     // op service time, [untraced, traced]
  std::vector<double> lag_ms;       // generator lateness / inter-op gap
  std::vector<double> kind_us[kLookupKinds];
  CallCounts calls;                 // delta over the window
  int64_t describe_calls = 0, attestations = 0, retries = 0;
  std::string first_error;

  void Error(const Status& st) {
    if (first_error.empty()) first_error = st.ToString();
  }
};

/// Snapshot of one client's driver and transport counters.
struct ClientCounters {
  CallCounts calls;
  int64_t describe_calls = 0, attestations = 0, retries = 0;

  static ClientCounters Read(const aedb::client::Driver& d,
                             const TracingTransport& t) {
    return {t.counts(), d.describe_calls(), d.attestations(), d.retries()};
  }
  void DeltaInto(const ClientCounters& before, ClientTally* out) const {
    out->calls.executes = calls.executes - before.calls.executes;
    out->calls.describes = calls.describes - before.calls.describes;
    out->calls.round_trips = calls.round_trips - before.calls.round_trips;
    out->describe_calls = describe_calls - before.describe_calls;
    out->attestations = attestations - before.attestations;
    out->retries = retries - before.retries;
  }
};

// ---------------------------------------------------------------------------
// TPC-C: closed-loop terminals

void RunTerminal(int index, Deployment* d, uint64_t seed, RunControl* ctl,
                 ClientTally* out) {
  TracingTransport* transport = nullptr;
  auto driver = d->Connect(&transport);
  if (!driver.ok()) {
    out->Error(driver.status());
    ++out->warmup_failures;
    ctl->ReadyAndWait();
    return;
  }
  aedb::tpcc::TpccTerminal terminal(driver->get(), d->spec().tpcc,
                                    seed * 104729 + index);
  // Warm up: attestation of every shard, CEK installs, plan and route caches.
  for (int i = 0; i < kWarmupTxns; ++i) {
    Status st = terminal.RunOne();
    if (!st.ok()) {
      ++out->warmup_failures;
      out->Error(st);
    }
  }
  ctl->ReadyAndWait();
  const auto before = ClientCounters::Read(**driver, *transport);
  Clock::time_point prev_end = ctl->start;
  while (!ctl->stop.load(std::memory_order_relaxed)) {
    const bool traced = ctl->trace && Tracer::Get().enabled();
    SetThreadTracing(traced);
    const uint64_t committed = terminal.committed();
    const Clock::time_point t0 = Clock::now();
    Status st;
    {
      ScopedSpan op(SpanKind::kOp, 0, traced);
      st = terminal.RunOne();
    }
    const Clock::time_point t1 = Clock::now();
    SetThreadTracing(false);
    out->lag_ms.push_back(Ms(t0 - prev_end));
    prev_end = t1;
    out->op_ms[traced].push_back(Ms(t1 - t0));
    const double t_s = Ms(t1 - ctl->start) / 1000.0;
    const bool ok = st.ok() && terminal.committed() > committed;
    out->outcome.push_back({t_s, ok ? 1.0 : 0.0});
    if (!st.ok()) {
      ++out->txn.hard_errors;
      out->Error(st);
    } else if (ok) {
      ++out->txn.committed;
      out->good_s.push_back(t_s);
      if (!traced) out->latency.push_back({t_s, Ms(t1 - t0)});
    } else {
      ++out->txn.aborted;
    }
  }
  ClientCounters::Read(**driver, *transport).DeltaInto(before, out);
}

// ---------------------------------------------------------------------------
// lookup-rnd: open-loop encrypted lookups

class LookupGen {
 public:
  LookupGen(const aedb::tpcc::TpccConfig& cfg)
      : cfg_(cfg), names_(LoaderLastNames(cfg.customers_per_district)) {
    sorted_ = names_;
    std::sort(sorted_.begin(), sorted_.end());
    for (size_t i = 0; i < names_.size(); ++i) id_of_[names_[i]] = i + 1;
  }

  /// Runs one lookup of `kind` with parameters drawn from `rng`; returns
  /// false (with `why`) when the answer does not match the loaded data.
  aedb::Result<bool> Run(aedb::client::Driver* driver, LookupKind kind,
                         aedb::Xoshiro256* rng) const {
    const int w = static_cast<int>(rng->Uniform(1, cfg_.warehouses));
    const int d =
        static_cast<int>(rng->Uniform(1, cfg_.districts_per_warehouse));
    const int n = static_cast<int>(
        rng->Uniform(0, static_cast<int64_t>(names_.size()) - 1));
    aedb::sql::ResultSet rs;
    switch (kind) {
      case kByName: {
        AEDB_ASSIGN_OR_RETURN(
            rs, driver->Query("SELECT C_ID, C_LAST FROM Customer WHERE "
                              "C_W_ID = @w AND C_D_ID = @d AND C_LAST = @last",
                              {{"w", Value::Int32(w)},
                               {"d", Value::Int32(d)},
                               {"last", Value::String(names_[n])}}));
        return rs.rows.size() == 1 && RowMatches(rs.rows[0], n + 1);
      }
      case kById: {
        AEDB_ASSIGN_OR_RETURN(
            rs, driver->Query(
                    "SELECT C_ID, C_LAST, C_FIRST, C_STREET_1, C_STREET_2, "
                    "C_CITY, C_STATE FROM Customer WHERE C_W_ID = @w AND "
                    "C_D_ID = @d AND C_ID = @c",
                    {{"w", Value::Int32(w)},
                     {"d", Value::Int32(d)},
                     {"c", Value::Int32(n + 1)}}));
        if (rs.rows.size() != 1 || rs.rows[0].size() != 7 ||
            !RowMatches(rs.rows[0], n + 1)) {
          return false;
        }
        const auto& row = rs.rows[0];
        return HasPrefix(row[2], "First") && HasPrefix(row[3], "Street") &&
               HasPrefix(row[4], "Apt") && HasPrefix(row[5], "City") &&
               HasPrefix(row[6], "") && row[6].str().size() == 2;
      }
      case kRange: {
        // Two adjacent names in sort order: exactly two customers per
        // district, broadcast to every shard.
        const int i = std::min<int>(n, static_cast<int>(sorted_.size()) - 2);
        const std::string& lo = sorted_[i];
        const std::string& hi = sorted_[i + 1];
        AEDB_ASSIGN_OR_RETURN(
            rs, driver->Query("SELECT C_ID, C_LAST FROM Customer WHERE "
                              "C_LAST BETWEEN @lo AND @hi",
                              {{"lo", Value::String(lo)},
                               {"hi", Value::String(hi)}}));
        const size_t expect = static_cast<size_t>(
            2 * cfg_.warehouses * cfg_.districts_per_warehouse);
        if (rs.rows.size() != expect) return false;
        for (const auto& row : rs.rows) {
          if (row.size() != 2 || row[1].is_null()) return false;
          auto it = id_of_.find(row[1].str());
          if (it == id_of_.end() || (row[1].str() != lo && row[1].str() != hi) ||
              !RowMatches(row, static_cast<int64_t>(it->second))) {
            return false;
          }
        }
        return true;
      }
      default:
        return false;
    }
  }

 private:
  /// Echoed C_ID and decrypted C_LAST equal what the loader wrote.
  bool RowMatches(const std::vector<Value>& row, int64_t c_id) const {
    return row.size() >= 2 && !row[0].is_null() && row[0].AsInt64() == c_id &&
           row[1].type() == aedb::types::TypeId::kString &&
           !row[1].is_null() && row[1].str() == names_[c_id - 1];
  }
  static bool HasPrefix(const Value& v, const char* prefix) {
    return v.type() == aedb::types::TypeId::kString && !v.is_null() &&
           v.str().rfind(prefix, 0) == 0;
  }

  aedb::tpcc::TpccConfig cfg_;
  std::vector<std::string> names_;   // names_[c - 1] = C_LAST of customer c
  std::vector<std::string> sorted_;
  std::map<std::string, size_t> id_of_;
};

LookupKind PickKind(aedb::Xoshiro256* rng) {
  int64_t u = rng->Uniform(1, 100);
  return u <= 50 ? kByName : (u <= 85 ? kById : kRange);
}

void RunLookupClient(int index, Deployment* d, uint64_t seed, RunControl* ctl,
                     ClientTally* out) {
  TracingTransport* transport = nullptr;
  auto driver = d->Connect(&transport);
  if (!driver.ok()) {
    out->Error(driver.status());
    ++out->warmup_failures;
    ctl->ReadyAndWait();
    return;
  }
  const LookupGen gen(d->spec().tpcc);
  aedb::Xoshiro256 warm_rng(seed * 7 + index);
  for (int k = 0; k < kLookupKinds; ++k) {
    for (int i = 0; i < kWarmupLookups; ++i) {
      auto ok = gen.Run(driver->get(), static_cast<LookupKind>(k), &warm_rng);
      if (!ok.ok() || !*ok) {
        ++out->warmup_failures;
        if (!ok.ok()) out->Error(ok.status());
      }
    }
  }
  // Seeded schedule: Poisson arrivals at this connection's share of the rate.
  aedb::Xoshiro256 rng(seed * 1000003 + index);
  const double rate = kLookupRatePerS / kClients;
  ctl->ReadyAndWait();
  const auto before = ClientCounters::Read(**driver, *transport);
  const Clock::time_point window_end =
      ctl->start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(ctl->seconds));
  const Clock::time_point cutoff =
      window_end + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(kDrainS));
  Clock::time_point arrival = ctl->start;
  Clock::time_point prev_done = ctl->start;
  for (;;) {
    const double gap_s = -std::log(1.0 - rng.NextDouble()) / rate;
    arrival += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(gap_s));
    if (arrival >= window_end) break;
    if (Clock::now() >= cutoff) {  // backlog never drained: all misses
      ++out->slo.unsent;
      out->outcome.push_back({Ms(arrival - ctl->start) / 1000.0, 0.0});
      continue;
    }
    std::this_thread::sleep_until(arrival);
    const LookupKind kind = PickKind(&rng);
    const Clock::time_point send = Clock::now();
    out->lag_ms.push_back(Ms(send - std::max(arrival, prev_done)));
    const bool traced = ctl->trace && Tracer::Get().enabled();
    SetThreadTracing(traced);
    aedb::Result<bool> ok = false;
    {
      ScopedSpan op(SpanKind::kOp, 0, traced);
      ok = gen.Run(driver->get(), kind, &rng);
    }
    const Clock::time_point done = Clock::now();
    SetThreadTracing(false);
    prev_done = done;
    out->op_ms[traced].push_back(Ms(done - send));
    const double arrival_s = Ms(arrival - ctl->start) / 1000.0;
    const double done_s = Ms(done - ctl->start) / 1000.0;
    const double latency = Ms(done - arrival);
    const bool good = ok.ok() && *ok && latency <= kLookupLimitMs;
    out->outcome.push_back({arrival_s, ok.ok() && *ok ? 1.0 : 0.0});
    if (!ok.ok()) {
      const Status& st = ok.status();
      if (st.IsOverloaded() || st.IsDeadlineExceeded()) {
        ++out->slo.shed;
      } else {
        ++out->slo.errors;
      }
      out->Error(st);
      continue;
    }
    if (!*ok) {
      ++out->slo.wrong;
      continue;
    }
    if (good) {
      ++out->slo.within_limit;
      out->good_s.push_back(done_s);
    } else {
      ++out->slo.over_limit;
    }
    if (!traced) out->latency.push_back({done_s, latency});
    out->kind_us[kind].push_back(Ms(done - send) * 1000.0);
  }
  ClientCounters::Read(**driver, *transport).DeltaInto(before, out);
}

// ---------------------------------------------------------------------------
// Output

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Named metrics with units, in insertion order.
struct MetricList {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void Add(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < items.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + items[i].first + "\": {\"value\": " +
             Num(items[i].second.first) + ", \"unit\": \"" +
             items[i].second.second + "\"}";
    }
    return out + "}";
  }
};

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

std::vector<double> Values(const std::vector<Sample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(s.value);
  return out;
}

/// Resident set size now (the second field of /proc/self/statm, in pages).
double CurrentRssMb() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long long size = 0, resident = 0;
  int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root = ".";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](std::string* v) {
      if (i + 1 >= argc) return false;
      *v = argv[++i];
      return true;
    };
    std::string v;
    if (!next(&v)) {
      return false;
    } else if (arg == "--workload") {
      a->workload = v;
    } else if (arg == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (arg == "--trace") {
      a->trace = v == "1";
    } else if (arg == "--root") {
      a->root = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: aebench --workload tpcc-rnd|tpcc-pt|lookup-rnd "
                 "--seed N --seconds S --trace 0|1 [--root DIR]\n");
    return 2;
  }
  Workload wl;
  if (!MakeWorkload(args.workload, args.seed, &wl)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const std::string data_root = args.root + "/.bench_data";
  const std::string out_dir = args.root + "/.bench_out";
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);

  // setup_s is the CPU time of the load phase (server start, key
  // provisioning, schema, rows, attestation): on a host whose speed drifts
  // over minutes, wall time (kept in the detail line) does not repeat, and
  // the key and shard-open phases are mostly RSA prime search, whose length
  // varies by several times between set-ups (their wall times are in the
  // detail line too).
  std::vector<double> setup_cpu_s;
  std::string setup_phases;  // per set-up, for the detail line
  auto set_up = [&](int i) -> std::unique_ptr<Deployment> {
    const std::string dir = data_root + "/" + std::to_string(getpid()) + "-" +
                            std::to_string(i);
    const Clock::time_point t0 = Clock::now();
    auto created = Deployment::Create(wl.spec, dir);
    if (!created.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   created.status().ToString().c_str());
      std::filesystem::remove_all(dir, ec);
      return nullptr;
    }
    std::unique_ptr<Deployment> d = std::move(created).value();
    setup_cpu_s.push_back(d->load_cpu_s());
    setup_phases +=
        std::string(setup_phases.empty() ? "" : ", ") + "{\"wall\": " +
        Num(std::chrono::duration<double>(Clock::now() - t0).count()) +
        ", \"keys\": " + Num(d->keys_s()) + ", \"open\": " +
        Num(d->open_s()) + ", \"load\": " + Num(d->load_s()) +
        ", \"load_cpu\": " + Num(d->load_cpu_s()) + "}";
    return d;
  };
  // The measured deployment is the process's first, so the memory figures
  // see one deployment's heap; the further set-ups for setup_s follow the
  // run.
  std::unique_ptr<Deployment> d = set_up(0);
  if (d == nullptr) return 1;
  std::vector<size_t> customer_pages;
  for (uint32_t s = 0; s < d->db()->shard_count(); ++s) {
    customer_pages.push_back(d->CustomerPages(s));
  }

  RunControl ctl;
  ctl.trace = args.trace;
  ctl.seconds = args.seconds;
  std::vector<ClientTally> tallies(kClients);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back(wl.lookups ? RunLookupClient : RunTerminal, t,
                         d.get(), args.seed, &ctl, &tallies[t]);
  }
  while (ctl.ready.load() < kClients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const Counters before = ReadCounters(d.get());
  const double rss_before_mb = CurrentRssMb();
  // Resident memory is sampled every tick of the window.
  double peak_rss_mb = rss_before_mb;
  const double cpu_start_s = ProcessCpuSeconds();
  Tracer::Get().set_enabled(false);
  ctl.start = Clock::now();
  ctl.go.store(true, std::memory_order_release);
  const Clock::time_point window_end =
      ctl.start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(args.seconds));
  for (int tick = 1;; ++tick) {
    const Clock::time_point t =
        ctl.start + std::chrono::milliseconds(tick * kTickMs);
    std::this_thread::sleep_until(std::min(t, window_end));
    if (t > window_end) break;
    peak_rss_mb = std::max(peak_rss_mb, CurrentRssMb());
    // Tracing alternates off/on per slice, so the traced and untraced
    // halves see the same drift in database size and state.
    if (args.trace) {
      Tracer::Get().set_enabled((tick / kTicksPerTraceSlice) % 2 == 1);
    }
  }
  const double cpu_end_s = ProcessCpuSeconds();
  peak_rss_mb = std::max(peak_rss_mb, CurrentRssMb());
  Tracer::Get().set_enabled(false);
  ctl.stop.store(true);
  for (auto& c : clients) c.join();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - ctl.start).count();
  const Counters after = ReadCounters(d.get());
  const double rss_after_mb = CurrentRssMb();

  // Merge the client tallies.
  ClientTally all;
  for (const auto& t : tallies) {
    all.txn.committed += t.txn.committed;
    all.txn.aborted += t.txn.aborted;
    all.txn.hard_errors += t.txn.hard_errors;
    all.slo.within_limit += t.slo.within_limit;
    all.slo.over_limit += t.slo.over_limit;
    all.slo.wrong += t.slo.wrong;
    all.slo.shed += t.slo.shed;
    all.slo.errors += t.slo.errors;
    all.slo.unsent += t.slo.unsent;
    all.warmup_failures += t.warmup_failures;
    auto append = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    all.latency.insert(all.latency.end(), t.latency.begin(), t.latency.end());
    all.outcome.insert(all.outcome.end(), t.outcome.begin(), t.outcome.end());
    append(&all.good_s, t.good_s);
    append(&all.op_ms[0], t.op_ms[0]);
    append(&all.op_ms[1], t.op_ms[1]);
    append(&all.lag_ms, t.lag_ms);
    for (int k = 0; k < kLookupKinds; ++k) append(&all.kind_us[k], t.kind_us[k]);
    all.calls.executes += t.calls.executes;
    all.calls.describes += t.calls.describes;
    all.calls.round_trips += t.calls.round_trips;
    all.describe_calls += t.describe_calls;
    all.attestations += t.attestations;
    all.retries += t.retries;
    if (all.first_error.empty()) all.first_error = t.first_error;
  }

  // Correctness gates.
  TpccCheck check;
  if (!wl.lookups) {
    check = CheckTpcc(d.get());
    all.txn.wrong_results = check.wrong_results;
  }
  d->Stop();
  const bool encrypted =
      wl.spec.tpcc.encryption != aedb::tpcc::Encryption::kPlaintext;
  const uint64_t plaintext_hits = CountPlaintextHits(
      d->data_dir(), LoaderLastNames(wl.spec.tpcc.customers_per_district));
  // Encrypted: no loader plaintext of an encrypted column may be at rest.
  // Plaintext control: the same scan must find them, or it proves nothing.
  const bool at_rest_ok = encrypted ? plaintext_hits == 0 : plaintext_hits > 0;
  d.reset();
  if (!args.trace) {  // the traced run does not report setup_s
    for (int i = 1; i < kSetupRepeats; ++i) {
      if (set_up(i) == nullptr) return 1;
    }
  }
  std::filesystem::remove(data_root, ec);

  const uint64_t attempted =
      wl.lookups ? all.slo.scheduled() : all.txn.attempted();
  const uint64_t failed = wl.lookups ? all.slo.failed() : all.txn.failed();
  const uint64_t wrong = wl.lookups ? all.slo.wrong : all.txn.wrong_results;
  const bool correct =
      wrong == 0 && at_rest_ok && all.warmup_failures == 0 && attempted > 0;

  // Whole-window figures, for the detail line.
  const size_t n = all.latency.size();
  const double tail_pct = std::min(99.0, TailPercentile(n));
  const double p50_all = Percentile(Values(all.latency), 50);
  const double tail_all = Percentile(Values(all.latency), tail_pct);
  const double goodput_all = wl.lookups ? all.slo.within_limit / args.seconds
                                        : all.txn.committed / elapsed_s;
  // The share of operations that succeeded (committed, or answered
  // correctly whatever the latency), as a median over the 1-s slices of the
  // window, so a few seconds of interference from outside the benchmark
  // move it less than they move the whole-window share. The lookups' 10 ms
  // limit is not part of it: on the defining host the share within the
  // limit swung with the host (see SPEC.md), so it is in the detail line.
  const double ok_share = MedianSliceMean(all.outcome, args.seconds);
  // Resident memory while serving. The lookups' data and pools do not grow,
  // so their figure is the window's peak. TPC-C inserts rows and grows the
  // WAL's memory mirror in proportion to throughput, which drifts with the
  // host's speed, so its figure is the memory of the loaded and warmed
  // deployment at the window's start; the growth is
  // process.rss_growth_kb_per_txn.
  const double rss_mb = wl.lookups ? peak_rss_mb : rss_before_mb;
  // Process CPU time (clients and server) per committed transaction or
  // correct lookup: it moves much less than wall-clock figures when the host
  // gives the benchmark less CPU.
  const double served = static_cast<double>(
      wl.lookups ? all.slo.within_limit + all.slo.over_limit
                 : all.txn.committed);
  const double cpu_ms_per_op =
      Ratio((cpu_end_s - cpu_start_s) * 1000.0, served);
  const double setup_s = Median(setup_cpu_s);

  // Detail line: the per-workload metric names (whole window), counts and
  // sizes.
  MetricList named;
  named.Add("setup_s", setup_s, "s");
  named.Add("rss_mb", rss_mb, "MB");
  named.Add("window_peak_rss_mb", peak_rss_mb, "MB");
  named.Add("fail_share", TxnAccount::Share(failed, attempted), "share");
  if (wl.lookups) {
    named.Add("lookup_p50_ms", p50_all, "ms");
    named.Add("lookup_p99_ms", tail_all, "ms");
    named.Add("lookup_goodput_per_s", goodput_all, "1/s");
    named.Add("slo_miss_share", all.slo.miss_share(), "share");
  } else {
    named.Add("txn_per_s", goodput_all, "1/s");
    named.Add("txn_p50_ms", p50_all, "ms");
    named.Add("txn_p99_ms", tail_all, "ms");
    named.Add("txn_abort_share", all.txn.abort_share(), "share");
  }
  std::string slice_list;
  {
    std::vector<int> per_slice(static_cast<size_t>(args.seconds), 0);
    for (double t : all.good_s) {
      if (t >= 0 && t < per_slice.size()) ++per_slice[static_cast<size_t>(t)];
    }
    for (int c : per_slice) {
      slice_list += (slice_list.empty() ? "" : ", ") + std::to_string(c);
    }
  }
  std::string pages_list;
  for (size_t p : customer_pages) {
    pages_list += (pages_list.empty() ? "" : ", ") + std::to_string(p);
  }
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"named_metrics\": %s, \"latency_samples\": %zu, "
      "\"tail_percentile\": %s, \"setup_phases_s\": [%s], "
      "\"good_per_slice\": [%s], "
      "\"elapsed_s\": %s, \"committed\": %llu, \"aborted\": %llu, "
      "\"hard_errors\": %llu, \"wrong_results\": %llu, "
      "\"consistency_violations\": %llu, \"check_detail\": \"%s\", "
      "\"slo\": {\"within_limit\": %llu, "
      "\"over_limit\": %llu, \"wrong\": %llu, \"shed\": %llu, "
      "\"errors\": %llu, \"unsent\": %llu}, \"offered_rate_per_s\": %s, "
      "\"latency_limit_ms\": %s, \"plaintext_hits\": %llu, "
      "\"warmup_failures\": %llu, \"first_error\": \"%s\", "
      "\"customer_pages_per_shard\": [%s], \"pool_pages_per_shard\": %llu}\n",
      wl.name.c_str(), (unsigned long long)args.seed, args.trace ? 1 : 0,
      named.Json().c_str(), n, Num(tail_pct).c_str(), setup_phases.c_str(),
      slice_list.c_str(),
      Num(elapsed_s).c_str(), (unsigned long long)all.txn.committed,
      (unsigned long long)all.txn.aborted,
      (unsigned long long)all.txn.hard_errors, (unsigned long long)wrong,
      (unsigned long long)check.consistency_violations,
      JsonEscape(check.detail).c_str(),
      (unsigned long long)all.slo.within_limit,
      (unsigned long long)all.slo.over_limit,
      (unsigned long long)all.slo.wrong, (unsigned long long)all.slo.shed,
      (unsigned long long)all.slo.errors, (unsigned long long)all.slo.unsent,
      Num(wl.lookups ? kLookupRatePerS : 0).c_str(),
      Num(wl.lookups ? kLookupLimitMs : 0).c_str(),
      (unsigned long long)plaintext_hits,
      (unsigned long long)all.warmup_failures,
      JsonEscape(all.first_error).c_str(), pages_list.c_str(),
      (unsigned long long)(wl.spec.pool_pages != 0
                               ? wl.spec.pool_pages
                               : aedb::storage::BufferPool::kDefaultPages));

  MetricList metrics;
  if (!args.trace) {
    metrics.Add("setup_s", setup_s, "s");
    metrics.Add("rss_mb", rss_mb, "MB");
    metrics.Add("cpu_ms_per_op", cpu_ms_per_op, "ms");
    metrics.Add("ok_share", ok_share, "share");
  } else {
    const std::vector<Span> spans = Tracer::Get().Collect();
    Tracer::Get().WriteCsv(out_dir + "/spans-" + wl.name + ".csv", spans);
    const TraceSummary tr = Analyze(spans);
    const double stmts = static_cast<double>(all.calls.executes);
    const double ops = static_cast<double>(attempted);
    const double txns = wl.lookups ? ops : static_cast<double>(all.txn.committed);
    const auto& b = before.db;
    const auto& a = after.db;
    const double transitions =
        static_cast<double>(a.enclave_transitions - b.enclave_transitions);
    const double compares =
        static_cast<double>(a.enclave_comparisons - b.enclave_comparisons);
    const double evals = static_cast<double>(a.enclave_evals - b.enclave_evals);
    const double hits = static_cast<double>(a.pool_hits - b.pool_hits);
    const double misses = static_cast<double>(a.pool_misses - b.pool_misses);
    metrics.Add("client.self_us",
                Ratio(tr.client_self_ns / 1000.0, tr.client_executes), "us");
    metrics.Add("client.describe_per_stmt", Ratio(all.calls.describes, stmts),
                "count");
    metrics.Add("client.retries", all.retries, "count");
    metrics.Add("client.attestations", all.attestations, "count");
    metrics.Add("net.overhead_us", Percentile(tr.net_overhead_us, 50), "us");
    metrics.Add("net.round_trips_per_txn", Ratio(all.calls.round_trips, ops),
                "count");
    metrics.Add("net.bytes_per_stmt",
                Ratio(static_cast<double>((after.net.bytes_in + after.net.bytes_out) -
                                          (before.net.bytes_in + before.net.bytes_out)),
                      stmts),
                "bytes");
    metrics.Add("net.run_queue_highwater",
                static_cast<double>(after.net.run_queue_highwater), "count");
    metrics.Add("net.exec_threads_peak",
                static_cast<double>(after.net.exec_threads_peak), "count");
    metrics.Add("server.describe_us", Percentile(tr.describe_us, 50), "us");
    metrics.Add("server.execute_p50_us", Percentile(tr.execute_us, 50), "us");
    metrics.Add("server.execute_p99_us", Percentile(tr.execute_us, 99), "us");
    metrics.Add("server.commit_p50_us", Percentile(tr.commit_us, 50), "us");
    metrics.Add("server.commit_p99_us", Percentile(tr.commit_us, 99), "us");
    metrics.Add("router.two_pc_per_txn",
                Ratio(static_cast<double>(after.two_pc - before.two_pc), txns),
                "count");
    metrics.Add("enclave.transitions_per_stmt", Ratio(transitions, stmts),
                "count");
    metrics.Add("enclave.values_per_transition",
                Ratio(evals + compares, transitions), "count");
    metrics.Add("enclave.comparisons_per_stmt", Ratio(compares, stmts), "count");
    metrics.Add("enclave.gate_us_per_stmt",
                Ratio(transitions * kEnclaveTransitionNs / 1000.0, stmts), "us");
    metrics.Add("storage.fsyncs_per_txn",
                Ratio(static_cast<double>(a.fsyncs - b.fsyncs), txns), "count");
    metrics.Add("storage.commits_per_fsync",
                Ratio(static_cast<double>(a.commit_sync_requests -
                                          b.commit_sync_requests),
                      static_cast<double>(a.group_commit_batches -
                                          b.group_commit_batches)),
                "count");
    metrics.Add("storage.wal_bytes_per_txn",
                Ratio(static_cast<double>(a.wal_bytes) -
                          static_cast<double>(b.wal_bytes),
                      txns),
                "bytes");
    metrics.Add("storage.pool_hit_ratio", Ratio(hits, hits + misses), "share");
    metrics.Add("storage.pool_evictions_per_stmt",
                Ratio(static_cast<double>(a.pool_evictions - b.pool_evictions),
                      stmts),
                "count");
    for (int k = 0; k < kLookupKinds; ++k) {
      metrics.Add(std::string("lookup.") + kLookupKindNames[k] + "_us",
                  Percentile(all.kind_us[k], 50), "us");
    }
    metrics.Add("process.rss_growth_kb_per_txn",
                Ratio((rss_after_mb - rss_before_mb) * 1024.0, ops), "KB");
    metrics.Add("tpcc.gen_lag_p99_ms", Percentile(all.lag_ms, 99), "ms");
    metrics.Add("tpcc.consistency_violations",
                static_cast<double>(check.consistency_violations), "count");
    metrics.Add("trace.overhead_pct",
                (Ratio(Median(all.op_ms[1]), Median(all.op_ms[0])) - 1.0) *
                    100.0,
                "%");
    metrics.Add("trace.coverage_pct", tr.coverage() * 100.0, "%");
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", (unsigned long long)attempted,
      (unsigned long long)failed, metrics.Json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace aebench

int main(int argc, char** argv) { return aebench::Main(argc, argv); }
