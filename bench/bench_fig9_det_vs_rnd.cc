// Reproduces paper Figure 9: normalized TPC-C throughput comparing
// enclave-based processing over RND columns against non-enclave DET
// processing and the plaintext-with-AE-connection baseline, at a fixed
// client thread count. The paper measured SQL-AE-RND-4 ~12.3% below
// SQL-AE-DET. Here every server thread enters the enclave itself, so there
// is one RND configuration, not one per enclave thread count.

#include <cstdio>
#include <cstring>

#include "tpcc_bench_common.h"

namespace aedb::bench {
namespace {

int Main(int argc, char** argv) {
  double seconds = 3.0;
  int threads = 16;
  uint32_t network_us = 120;
  uint64_t transition_ns = 3000;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto val = [&](const char* prefix) -> const char* {
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + strlen(prefix) : nullptr;
    };
    if (const char* v = val("--seconds=")) seconds = atof(v);
    if (const char* v = val("--threads=")) threads = atoi(v);
    if (const char* v = val("--network_us=")) network_us = atoi(v);
  }

  tpcc::TpccConfig config;
  config.warehouses = 4;
  config.districts_per_warehouse = 4;
  config.customers_per_district = 30;
  config.items = 100;
  config.initial_orders_per_district = 10;

  SystemConfig systems[] = {
      {"SQL-PT-AEConn", tpcc::Encryption::kPlaintext, true, false},
      {"SQL-AE-DET", tpcc::Encryption::kDeterministic, true, false},
      {"SQL-AE-RND", tpcc::Encryption::kRandomized, true, false},
  };
  constexpr int kSystems = sizeof(systems) / sizeof(systems[0]);

  std::printf("Figure 9: enclave (RND) vs deterministic encryption, %d client "
              "threads\n\n", threads);
  double results[kSystems] = {};
  for (int s = 0; s < kSystems; ++s) {
    auto deployment = SetUpDeployment(systems[s], config, network_us, transition_ns);
    if (!deployment) return 1;
    auto r = RunConfig(deployment.get(), threads, seconds);
    results[s] = r.txn_per_second;
    std::fprintf(stderr, "  %-14s %8.1f txn/s (%lu ok, %lu aborted)\n",
                 systems[s].name.c_str(), r.txn_per_second,
                 (unsigned long)r.committed, (unsigned long)r.aborted);
  }
  double base = results[0];
  std::printf("%-16s %12s %12s\n", "system", "txn/s", "normalized");
  for (int s = 0; s < kSystems; ++s) {
    std::printf("%-16s %12.1f %12.2f\n", systems[s].name.c_str(), results[s],
                results[s] / base);
  }
  std::printf("\nRND vs DET: %.1f%% slower (paper, RND-4: 12.3%%)\n",
              100.0 * (1.0 - results[2] / std::max(1.0, results[1])));
  return 0;
}

}  // namespace
}  // namespace aedb::bench

int main(int argc, char** argv) { return aedb::bench::Main(argc, argv); }
