#include "crypto/drbg.h"

#include <cstring>
#include <random>

namespace aedb::crypto {

HmacDrbg::HmacDrbg(Slice entropy, Slice personalization)
    : key_(Bytes(HmacSha256::kDigestSize, 0x00)),
      v_(HmacSha256::kDigestSize, 0x01) {
  Bytes seed(entropy.data(), entropy.data() + entropy.size());
  seed.insert(seed.end(), personalization.data(),
              personalization.data() + personalization.size());
  UpdateState(seed);
}

void HmacDrbg::StepV() {
  HmacSha256 h = key_;
  h.Update(v_);
  v_ = h.Finish();
}

void HmacDrbg::UpdateState(Slice provided) {
  // K = HMAC(K, V || round || provided); V = HMAC(K, V) — round 0x00, then
  // round 0x01 only when data was provided (SP 800-90A §10.1.2.2).
  for (uint8_t round = 0; round < (provided.empty() ? 1 : 2); ++round) {
    HmacSha256 h = key_;
    h.Update(v_);
    h.Update(Slice(&round, 1));
    h.Update(provided);
    key_ = HmacSha256(h.Finish());
    StepV();
  }
}

void HmacDrbg::Generate(uint8_t* out, size_t n) {
  size_t produced = 0;
  while (produced < n) {
    StepV();
    size_t take = n - produced < v_.size() ? n - produced : v_.size();
    std::memcpy(out + produced, v_.data(), take);
    produced += take;
  }
  UpdateState(Slice());
}

Bytes HmacDrbg::Generate(size_t n) {
  Bytes out(n);
  Generate(out.data(), n);
  return out;
}

void HmacDrbg::Reseed(Slice entropy) { UpdateState(entropy); }

namespace {
HmacDrbg MakeThreadDrbg() {
  std::random_device rd;
  Bytes entropy(48);
  for (size_t i = 0; i < entropy.size(); i += 4) {
    uint32_t r = rd();
    std::memcpy(entropy.data() + i, &r, 4);
  }
  return HmacDrbg(entropy, Slice(std::string_view("aedb-secure-random")));
}
}  // namespace

void SecureRandom(uint8_t* out, size_t n) {
  thread_local HmacDrbg drbg = MakeThreadDrbg();
  drbg.Generate(out, n);
}

Bytes SecureRandom(size_t n) {
  Bytes out(n);
  SecureRandom(out.data(), n);
  return out;
}

}  // namespace aedb::crypto
