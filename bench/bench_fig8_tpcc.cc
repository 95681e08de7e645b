// Reproduces paper Figure 8: normalized TPC-C transaction rates for
// SQL-PT, SQL-PT-AEConn and SQL-AE (RND) across client driver thread
// counts. Laptop scale: the absolute tpmC is meaningless; the
// *shape* — PT > PT-AEConn > AE, AEConn paying mostly for the extra
// sp_describe round trip — is the reproduced result.
//
// Flags: --seconds=<per cell> --warehouses=N --threads=a,b,c --network_us=N
//        --batch_size=N (rows per execution morsel; 1 = row-at-a-time)

#include <cstdio>
#include <cstring>
#include <sstream>
#include <vector>

#include "tpcc_bench_common.h"

namespace aedb::bench {
namespace {

int Main(int argc, char** argv) {
  double seconds = 2.0;
  int warehouses = 4;
  uint32_t network_us = 120;
  uint64_t transition_ns = 3000;
  size_t batch_size = 256;
  std::vector<int> thread_counts = {1, 2, 5, 10, 25, 50, 100};
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto val = [&](const char* prefix) -> const char* {
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + strlen(prefix) : nullptr;
    };
    if (const char* v = val("--seconds=")) seconds = atof(v);
    if (const char* v = val("--warehouses=")) warehouses = atoi(v);
    if (const char* v = val("--network_us=")) network_us = atoi(v);
    if (const char* v = val("--batch_size="))
      batch_size = std::max(1, atoi(v));
    if (const char* v = val("--threads=")) {
      thread_counts.clear();
      std::stringstream ss(v);
      std::string tok;
      while (std::getline(ss, tok, ',')) thread_counts.push_back(atoi(tok.c_str()));
    }
  }

  tpcc::TpccConfig config;
  config.warehouses = warehouses;
  config.districts_per_warehouse = 4;
  config.customers_per_district = 30;
  config.items = 100;
  config.initial_orders_per_district = 10;

  SystemConfig systems[] = {
      {"SQL-PT", tpcc::Encryption::kPlaintext, /*ae_connection=*/false, false},
      {"SQL-PT-AEConn", tpcc::Encryption::kPlaintext, true, false},
      {"SQL-AE-RND", tpcc::Encryption::kRandomized, true, false},
  };

  std::printf("Figure 8: normalized TPC-C throughput vs client driver threads\n");
  std::printf("(W=%d scaled down; network=%uus/round-trip; enclave "
              "transition=%luns; batch=%zu)\n\n",
              warehouses, network_us, (unsigned long)transition_ns, batch_size);

  // throughput[system][thread_count]
  std::vector<std::vector<double>> tps(3);
  for (int s = 0; s < 3; ++s) {
    auto deployment =
        SetUpDeployment(systems[s], config, network_us, transition_ns, batch_size);
    if (!deployment) return 1;
    for (int threads : thread_counts) {
      auto result = RunConfig(deployment.get(), threads, seconds);
      tps[s].push_back(result.txn_per_second);
      std::fprintf(stderr, "  %-14s %3d threads: %8.1f txn/s (%lu ok, %lu aborted)\n",
                   systems[s].name.c_str(), threads, result.txn_per_second,
                   (unsigned long)result.committed, (unsigned long)result.aborted);
    }
  }

  // Normalize to SQL-PT at the largest thread count (the paper normalizes to
  // the plaintext maximum).
  double base = 0;
  for (double v : tps[0]) base = std::max(base, v);
  std::printf("%-16s", "threads");
  for (int t : thread_counts) std::printf("%8d", t);
  std::printf("\n");
  for (int s = 0; s < 3; ++s) {
    std::printf("%-16s", systems[s].name.c_str());
    for (size_t i = 0; i < thread_counts.size(); ++i) {
      std::printf("%8.2f", tps[s][i] / base);
    }
    std::printf("\n");
  }

  size_t last = thread_counts.size() - 1;
  std::printf("\nAt %d threads: AEConn/PT = %.2f (paper: ~0.64), AE/PT = %.2f "
              "(paper: ~0.5)\n",
              thread_counts[last], tps[1][last] / std::max(1.0, tps[0][last]),
              tps[2][last] / std::max(1.0, tps[0][last]));
  return 0;
}

}  // namespace
}  // namespace aedb::bench

int main(int argc, char** argv) { return aedb::bench::Main(argc, argv); }
