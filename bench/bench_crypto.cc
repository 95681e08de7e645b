// Microbenchmarks for the cell-encryption substrate (§2.3 ablation): the
// AEAD_AES_256_CBC_HMAC_SHA_256 codec in both schemes, plus the primitives.
//
// Every benchmark runs twice in one binary: `hw:0` on the portable kernels
// (FIPS 180-4 reference SHA-256, T-table AES) and `hw:1` on the kernels
// CPUID selected, the ones the server and driver run. The label names the
// kernels a row used (e.g. "sha-ni+aes-ni"; "portable" on a CPU without
// either instruction set).

#include <benchmark/benchmark.h>

#include <string>

#include "crypto/cell_codec.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/kernels.h"
#include "crypto/sha256.h"

namespace aedb::crypto {
namespace {

const internal::Kernels& PathKernels(int64_t hw) {
  return hw == 0 ? internal::PortableKernels() : internal::HardwareKernels();
}

void BM_Sha256(benchmark::State& state) {
  internal::ScopedKernels kernels(PathKernels(state.range(1)));
  Bytes data = SecureRandom(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetLabel(internal::ActiveKernels().name);
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)
    ->ArgNames({"bytes", "hw"})
    ->ArgsProduct({{64, 1024, 8192}, {0, 1}});

void BM_HmacSha256(benchmark::State& state) {
  internal::ScopedKernels kernels(PathKernels(state.range(1)));
  Bytes key = SecureRandom(32);
  Bytes data = SecureRandom(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(HmacSha256::Mac(key, data));
  }
  state.SetLabel(internal::ActiveKernels().name);
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)
    ->ArgNames({"bytes", "hw"})
    ->ArgsProduct({{64, 1024}, {0, 1}});

void BM_Aes256Block(benchmark::State& state) {
  internal::ScopedKernels kernels(PathKernels(state.range(0)));
  Bytes key = SecureRandom(32);
  Aes256 aes(key);
  uint8_t in[16], out[16];
  SecureRandom(in, 16);
  for (auto _ : state) {
    aes.EncryptBlock(in, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel(internal::ActiveKernels().name);
  state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_Aes256Block)->ArgName("hw")->Arg(0)->Arg(1);

// Keying a codec: three HMAC key derivations plus AES key expansion, paid
// once per CEK by the driver and the enclave.
void BM_CellCodecSetup(benchmark::State& state) {
  internal::ScopedKernels kernels(PathKernels(state.range(0)));
  Bytes cek = SecureRandom(32);
  for (auto _ : state) {
    CellCodec codec(cek);
    benchmark::DoNotOptimize(codec);
  }
  state.SetLabel(internal::ActiveKernels().name);
}
BENCHMARK(BM_CellCodecSetup)->ArgName("hw")->Arg(0)->Arg(1);

void BM_CellEncrypt(benchmark::State& state) {
  internal::ScopedKernels kernels(PathKernels(state.range(2)));
  Bytes cek = SecureRandom(32);
  CellCodec codec(cek);
  Bytes plain = SecureRandom(static_cast<size_t>(state.range(0)));
  auto scheme = state.range(1) == 0 ? EncryptionScheme::kDeterministic
                                    : EncryptionScheme::kRandomized;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.Encrypt(plain, scheme));
  }
  state.SetLabel(std::string(EncryptionSchemeName(scheme)) + " " +
                 internal::ActiveKernels().name);
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CellEncrypt)
    ->ArgNames({"bytes", "rnd", "hw"})
    ->ArgsProduct({{16, 256}, {0, 1}, {0, 1}});

void BM_CellDecrypt(benchmark::State& state) {
  internal::ScopedKernels kernels(PathKernels(state.range(1)));
  Bytes cek = SecureRandom(32);
  CellCodec codec(cek);
  Bytes cell = codec.Encrypt(SecureRandom(static_cast<size_t>(state.range(0))),
                             EncryptionScheme::kRandomized);
  for (auto _ : state) {
    auto r = codec.Decrypt(cell);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(internal::ActiveKernels().name);
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CellDecrypt)
    ->ArgNames({"bytes", "hw"})
    ->ArgsProduct({{16, 256}, {0, 1}});

}  // namespace
}  // namespace aedb::crypto

BENCHMARK_MAIN();
