#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string>

#include "common/bytes.h"
#include "crypto/aes.h"
#include "crypto/cbc.h"
#include "crypto/cell_codec.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/kernels.h"
#include "crypto/sha256.h"

namespace aedb::crypto {
namespace {

Bytes FromHex(std::string_view h) {
  auto r = HexDecode(h);
  EXPECT_TRUE(r.ok()) << h;
  return *r;
}

// --- SHA-256, FIPS 180-4 / NIST CAVP vectors ---

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(HexEncode(Sha256::Hash(Slice())),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(HexEncode(Sha256::Hash(Slice(std::string_view("abc")))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  std::string_view msg = "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  EXPECT_EQ(HexEncode(Sha256::Hash(Slice(msg))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(Slice(std::string_view(chunk)));
  auto d = h.Finish();
  EXPECT_EQ(HexEncode(Slice(d.data(), d.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string msg = "the quick brown fox jumps over the lazy dog, repeatedly";
  for (size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.Update(Slice(std::string_view(msg).substr(0, split)));
    h.Update(Slice(std::string_view(msg).substr(split)));
    auto d = h.Finish();
    EXPECT_EQ(Bytes(d.begin(), d.end()), Sha256::Hash(Slice(std::string_view(msg))));
  }
}

// --- HMAC-SHA-256, RFC 4231 test cases ---

TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(HexEncode(HmacSha256::Mac(key, Slice(std::string_view("Hi There")))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(HexEncode(HmacSha256::Mac(
                Slice(std::string_view("Jefe")),
                Slice(std::string_view("what do ya want for nothing?")))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case6LongKey) {
  Bytes key(131, 0xaa);
  std::string_view msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  EXPECT_EQ(HexEncode(HmacSha256::Mac(key, Slice(msg))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// --- AES-256, FIPS 197 Appendix C.3 ---

TEST(Aes256Test, Fips197Vector) {
  Bytes key = FromHex("000102030405060708090a0b0c0d0e0f"
                      "101112131415161718191a1b1c1d1e1f");
  Bytes pt = FromHex("00112233445566778899aabbccddeeff");
  Aes256 aes(key);
  uint8_t ct[16];
  aes.EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexEncode(Slice(ct, 16)), "8ea2b7ca516745bfeafc49904b496089");
  uint8_t back[16];
  aes.DecryptBlock(ct, back);
  EXPECT_EQ(Bytes(back, back + 16), pt);
}

TEST(Aes256Test, DecryptInvertsEncryptRandomBlocks) {
  Bytes key = SecureRandom(32);
  Aes256 aes(key);
  for (int i = 0; i < 50; ++i) {
    Bytes pt = SecureRandom(16);
    uint8_t ct[16], back[16];
    aes.EncryptBlock(pt.data(), ct);
    aes.DecryptBlock(ct, back);
    EXPECT_EQ(Bytes(back, back + 16), pt);
  }
}

// --- AES-256-CBC, NIST SP 800-38A F.2.5 ---

TEST(CbcTest, Sp80038aFirstBlock) {
  Bytes key = FromHex(
      "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
  Bytes iv = FromHex("000102030405060708090a0b0c0d0e0f");
  Bytes pt = FromHex("6bc1bee22e409f96e93d7e117393172a");
  Aes256 aes(key);
  Bytes ct = CbcEncrypt(aes, iv, pt);
  // Our CBC adds a PKCS#7 pad block; the first block must match the NIST
  // no-padding vector.
  ASSERT_EQ(ct.size(), 32u);
  EXPECT_EQ(HexEncode(Slice(ct.data(), 16)),
            "f58c4c04d6e5f1ba779eabfb5f7bfbd6");
}

TEST(CbcTest, RoundTripAllSmallSizes) {
  Bytes key = SecureRandom(32);
  Bytes iv = SecureRandom(16);
  Aes256 aes(key);
  for (size_t n = 0; n <= 70; ++n) {
    Bytes pt = SecureRandom(n);
    Bytes ct = CbcEncrypt(aes, iv, pt);
    EXPECT_EQ(ct.size() % 16, 0u);
    EXPECT_GT(ct.size(), pt.size());
    auto back = CbcDecrypt(aes, iv, ct);
    ASSERT_TRUE(back.ok()) << n;
    EXPECT_EQ(*back, pt);
  }
}

TEST(CbcTest, RejectsTruncatedCiphertext) {
  Bytes key = SecureRandom(32);
  Bytes iv = SecureRandom(16);
  Aes256 aes(key);
  Bytes ct = CbcEncrypt(aes, iv, SecureRandom(32));
  EXPECT_FALSE(CbcDecrypt(aes, iv, Slice(ct.data(), ct.size() - 1)).ok());
  EXPECT_FALSE(CbcDecrypt(aes, iv, Slice(ct.data(), 0)).ok());
}

TEST(CbcTest, BadPaddingDetected) {
  Bytes key = SecureRandom(32);
  Bytes iv(16, 0);
  Aes256 aes(key);
  // Random final block: padding check should almost surely fail.
  int failures = 0;
  for (int i = 0; i < 20; ++i) {
    Bytes garbage = SecureRandom(16);
    if (!CbcDecrypt(aes, iv, garbage).ok()) ++failures;
  }
  EXPECT_GE(failures, 18);
}

// --- HMAC-DRBG ---

TEST(DrbgTest, DeterministicForSeed) {
  Bytes seed(32, 0x42);
  HmacDrbg a(seed), b(seed);
  EXPECT_EQ(a.Generate(64), b.Generate(64));
}

// Output recorded from the generator before it kept K as a keyed midstate;
// the stream must not change.
TEST(DrbgTest, KnownAnswer) {
  Bytes entropy;
  for (int i = 0; i < 48; ++i) entropy.push_back(static_cast<uint8_t>(i));
  HmacDrbg drbg(entropy, Slice(std::string_view("aedb-kat")));
  EXPECT_EQ(HexEncode(drbg.Generate(64)),
            "a766fea6ea20625026b855782dc03f5038912150ac03893eda91942b39625188"
            "23483093b277a00765515793c9f3e0acf30701dff30b7b1572606e6bce4a05e4");
  drbg.Reseed(Slice(std::string_view("more entropy")));
  EXPECT_EQ(HexEncode(drbg.Generate(32)),
            "632d5791fdb22050a8a947f3e523e3e9a1e8262ee82e658fdf1975cb97bc1aca");
}

TEST(DrbgTest, PersonalizationChangesStream) {
  Bytes seed(32, 0x42);
  HmacDrbg a(seed, Slice(std::string_view("x")));
  HmacDrbg b(seed, Slice(std::string_view("y")));
  EXPECT_NE(a.Generate(32), b.Generate(32));
}

TEST(DrbgTest, ReseedChangesStream) {
  Bytes seed(32, 0x42);
  HmacDrbg a(seed), b(seed);
  b.Reseed(Slice(std::string_view("fresh entropy")));
  EXPECT_NE(a.Generate(32), b.Generate(32));
}

TEST(DrbgTest, SecureRandomProducesDistinctValues) {
  EXPECT_NE(SecureRandom(32), SecureRandom(32));
}

// --- Cell codec (AEAD_AES_256_CBC_HMAC_SHA_256) ---

class CellCodecTest : public ::testing::Test {
 protected:
  Bytes cek_ = SecureRandom(32);
  CellCodec codec_{cek_};
};

TEST_F(CellCodecTest, RandomizedRoundTrip) {
  Bytes pt = Slice(std::string_view("attack at dawn")).ToBytes();
  Bytes cell = codec_.Encrypt(pt, EncryptionScheme::kRandomized);
  auto back = codec_.Decrypt(cell);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, pt);
}

TEST_F(CellCodecTest, DeterministicRoundTrip) {
  Bytes pt = Slice(std::string_view("1985-06-12")).ToBytes();
  Bytes cell = codec_.Encrypt(pt, EncryptionScheme::kDeterministic);
  auto back = codec_.Decrypt(cell);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, pt);
}

TEST_F(CellCodecTest, DeterministicIsDeterministic) {
  Bytes pt = Slice(std::string_view("SMITH")).ToBytes();
  EXPECT_EQ(codec_.Encrypt(pt, EncryptionScheme::kDeterministic),
            codec_.Encrypt(pt, EncryptionScheme::kDeterministic));
}

TEST_F(CellCodecTest, RandomizedIsRandomized) {
  Bytes pt = Slice(std::string_view("SMITH")).ToBytes();
  EXPECT_NE(codec_.Encrypt(pt, EncryptionScheme::kRandomized),
            codec_.Encrypt(pt, EncryptionScheme::kRandomized));
}

TEST_F(CellCodecTest, DeterministicDistinguishesValues) {
  EXPECT_NE(codec_.Encrypt(Slice(std::string_view("a")).ToBytes(),
                           EncryptionScheme::kDeterministic),
            codec_.Encrypt(Slice(std::string_view("b")).ToBytes(),
                           EncryptionScheme::kDeterministic));
}

TEST_F(CellCodecTest, TamperedCellFailsMac) {
  Bytes cell = codec_.Encrypt(Slice(std::string_view("secret")).ToBytes(),
                              EncryptionScheme::kRandomized);
  for (size_t i = 0; i < cell.size(); i += 7) {
    Bytes tampered = cell;
    tampered[i] ^= 0x01;
    auto r = codec_.Decrypt(tampered);
    EXPECT_FALSE(r.ok()) << "byte " << i;
  }
}

TEST_F(CellCodecTest, WrongKeyFails) {
  Bytes cell = codec_.Encrypt(Slice(std::string_view("secret")).ToBytes(),
                              EncryptionScheme::kRandomized);
  CellCodec other(SecureRandom(32));
  EXPECT_FALSE(other.Decrypt(cell).ok());
}

TEST_F(CellCodecTest, EmptyPlaintextRoundTrip) {
  Bytes cell = codec_.Encrypt(Slice(), EncryptionScheme::kRandomized);
  auto back = codec_.Decrypt(cell);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST_F(CellCodecTest, RejectsGarbage) {
  EXPECT_FALSE(codec_.Decrypt(Slice(std::string_view("junk"))).ok());
  Bytes wrong_version(CellCodec::kMinCellSize, 0);
  wrong_version[0] = 0x7f;
  EXPECT_FALSE(codec_.Decrypt(wrong_version).ok());
}

TEST_F(CellCodecTest, LooksLikeCell) {
  Bytes cell = codec_.Encrypt(Slice(std::string_view("x")).ToBytes(),
                              EncryptionScheme::kRandomized);
  EXPECT_TRUE(CellCodec::LooksLikeCell(cell));
  EXPECT_FALSE(CellCodec::LooksLikeCell(Slice(std::string_view("nope"))));
}

TEST_F(CellCodecTest, CellLayoutSizes) {
  // version(1) + MAC(32) + IV(16) + one padded block for short plaintext.
  Bytes cell = codec_.Encrypt(Slice(std::string_view("hi")).ToBytes(),
                              EncryptionScheme::kRandomized);
  EXPECT_EQ(cell.size(), 1u + 32u + 16u + 16u);
  EXPECT_EQ(cell[0], CellCodec::kAlgorithmVersion);
}

// Property sweep: both schemes round-trip across sizes.
class CellCodecSizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(CellCodecSizeSweep, RoundTripBothSchemes) {
  Bytes cek = SecureRandom(32);
  CellCodec codec(cek);
  Bytes pt = SecureRandom(GetParam());
  for (auto scheme :
       {EncryptionScheme::kDeterministic, EncryptionScheme::kRandomized}) {
    Bytes cell = codec.Encrypt(pt, scheme);
    auto back = codec.Decrypt(cell);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, pt);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CellCodecSizeSweep,
                         ::testing::Values(0, 1, 15, 16, 17, 31, 32, 33, 255,
                                           256, 1000, 4096));

// --- Both kernel paths: the portable kernels and SHA-NI / AES-NI ---
//
// Every published vector runs on both paths through the real classes; the
// hardware cases skip where CPUID lacks the instruction set, so the portable
// kernels stay exercised on every host.

enum class Path { kPortable, kHardware };

class KernelPathTest : public ::testing::TestWithParam<Path> {
 protected:
  void SetUp() override {
    guard_.emplace(GetParam() == Path::kHardware ? internal::HardwareKernels()
                                                 : internal::PortableKernels());
  }
  bool NoShaNi() const {
    return GetParam() == Path::kHardware && !internal::CpuHasShaNi();
  }
  bool NoAesNi() const {
    return GetParam() == Path::kHardware && !internal::CpuHasAesNi();
  }

  std::optional<internal::ScopedKernels> guard_;
};

TEST_P(KernelPathTest, Sha256Fips180Vectors) {
  if (NoShaNi()) GTEST_SKIP() << "CPU lacks SHA-NI";
  struct Vector {
    std::string message;
    std::string_view digest;
  };
  const Vector vectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmn"
       "opjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const Vector& v : vectors) {
    EXPECT_EQ(HexEncode(Sha256::Hash(Slice(std::string_view(v.message)))),
              v.digest)
        << v.message.size() << "-byte message";
  }
}

TEST_P(KernelPathTest, HmacRfc4231Vectors) {
  if (NoShaNi()) GTEST_SKIP() << "CPU lacks SHA-NI";
  struct Vector {
    Bytes key;
    Bytes data;
    std::string_view mac;  // case 5 is truncated to 128 bits
  };
  auto text = [](std::string_view s) { return Slice(s).ToBytes(); };
  const Vector vectors[] = {
      {Bytes(20, 0x0b), text("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {text("Jefe"), text("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {Bytes(20, 0xaa), Bytes(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {FromHex("0102030405060708090a0b0c0d0e0f10111213141516171819"),
       Bytes(50, 0xcd),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {Bytes(20, 0x0c), text("Test With Truncation"),
       "a3b6167473100ee06e0c796c2955552b"},
      {Bytes(131, 0xaa),
       text("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {Bytes(131, 0xaa),
       text("This is a test using a larger than block-size key and a larger "
            "than block-size data. The key needs to be hashed before being "
            "used by the HMAC algorithm."),
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  for (size_t i = 0; i < std::size(vectors); ++i) {
    const Vector& v = vectors[i];
    std::string mac = HexEncode(HmacSha256::Mac(v.key, v.data));
    EXPECT_EQ(mac.substr(0, v.mac.size()), v.mac) << "RFC 4231 case " << i + 1;
  }
}

TEST_P(KernelPathTest, Aes256Fips197Vector) {
  if (NoAesNi()) GTEST_SKIP() << "CPU lacks AES-NI";
  Aes256 aes(FromHex("000102030405060708090a0b0c0d0e0f"
                     "101112131415161718191a1b1c1d1e1f"));
  Bytes pt = FromHex("00112233445566778899aabbccddeeff");
  Bytes ct = FromHex("8ea2b7ca516745bfeafc49904b496089");
  uint8_t out[16];
  aes.EncryptBlock(pt.data(), out);
  EXPECT_EQ(Bytes(out, out + 16), ct);
  aes.DecryptBlock(ct.data(), out);
  EXPECT_EQ(Bytes(out, out + 16), pt);
}

// NIST SP 800-38A F.2.5 (CBC-AES256.Encrypt) and F.2.6 (.Decrypt).
TEST_P(KernelPathTest, CbcSp80038aVectors) {
  if (NoAesNi()) GTEST_SKIP() << "CPU lacks AES-NI";
  Aes256 aes(FromHex(
      "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4"));
  Bytes iv = FromHex("000102030405060708090a0b0c0d0e0f");
  Bytes pt = FromHex(
      "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710");
  Bytes ct = FromHex(
      "f58c4c04d6e5f1ba779eabfb5f7bfbd69cfc4e967edb808d679f777bc6702c7d"
      "39f23369a9d9bacfa530e26304231461b2eb05e2c39be9fcda6c19078c6a9d1b");
  // Our CBC appends a PKCS#7 block; the first four blocks are NIST's.
  Bytes enc = CbcEncrypt(aes, iv, pt);
  ASSERT_EQ(enc.size(), pt.size() + 16);
  EXPECT_EQ(Bytes(enc.begin(), enc.begin() + 64), ct);
  auto dec = CbcDecrypt(aes, iv, enc);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(*dec, pt);
  // F.2.6 block by block: P_i = D(C_i) xor C_{i-1}.
  for (size_t off = 0; off < ct.size(); off += 16) {
    uint8_t block[16];
    aes.DecryptBlock(ct.data() + off, block);
    const uint8_t* prev = off == 0 ? iv.data() : ct.data() + off - 16;
    for (int i = 0; i < 16; ++i) block[i] ^= prev[i];
    EXPECT_EQ(Bytes(block, block + 16), Bytes(pt.begin() + off,
                                              pt.begin() + off + 16));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paths, KernelPathTest, ::testing::Values(Path::kPortable, Path::kHardware),
    [](const ::testing::TestParamInfo<Path>& info) {
      return info.param == Path::kHardware ? "Hardware" : "Portable";
    });

// Seeded differential of the hardware kernels against the portable oracle.
class KernelDifferentialTest : public ::testing::Test {
 protected:
  static constexpr int kCases = 10000;

  Bytes RandomBytes(size_t n) {
    Bytes out(n);
    for (uint8_t& b : out) b = static_cast<uint8_t>(rng_());
    return out;
  }
  size_t Uniform(size_t lo, size_t hi) {
    return std::uniform_int_distribution<size_t>(lo, hi)(rng_);
  }

  std::mt19937_64 rng_{20200614};
};

TEST_F(KernelDifferentialTest, Sha256CompressMatchesPortable) {
  if (!internal::CpuHasShaNi()) GTEST_SKIP() << "CPU lacks SHA-NI";
  for (int i = 0; i < kCases; ++i) {
    size_t nblocks = Uniform(1, 4);
    Bytes blocks = RandomBytes(64 * nblocks);
    uint32_t portable[8], hardware[8];
    for (int w = 0; w < 8; ++w) {
      portable[w] = hardware[w] = static_cast<uint32_t>(rng_());
    }
    internal::PortableKernels().sha256_compress(portable, blocks.data(),
                                                nblocks);
    internal::HardwareKernels().sha256_compress(hardware, blocks.data(),
                                                nblocks);
    ASSERT_TRUE(std::equal(portable, portable + 8, hardware)) << "case " << i;
  }
}

// Random-length messages fed to the hardware path at random Update
// boundaries must hash as the portable path hashes them in one call.
TEST_F(KernelDifferentialTest, Sha256SplitMessagesMatchPortable) {
  if (!internal::CpuHasShaNi()) GTEST_SKIP() << "CPU lacks SHA-NI";
  for (int i = 0; i < kCases; ++i) {
    Bytes msg = RandomBytes(Uniform(0, 300));
    Bytes expected;
    {
      internal::ScopedKernels portable(internal::PortableKernels());
      expected = Sha256::Hash(msg);
    }
    internal::ScopedKernels hardware(internal::HardwareKernels());
    Sha256 h;
    size_t off = 0;
    while (off < msg.size()) {
      size_t take = Uniform(0, msg.size() - off);
      h.Update(Slice(msg.data() + off, take));
      off += take;
    }
    auto d = h.Finish();
    ASSERT_EQ(Bytes(d.begin(), d.end()), expected)
        << "case " << i << ", " << msg.size() << " bytes";
  }
}

TEST_F(KernelDifferentialTest, Aes256BlocksMatchPortable) {
  if (!internal::CpuHasAesNi()) GTEST_SKIP() << "CPU lacks AES-NI";
  for (int i = 0; i < kCases; ++i) {
    Aes256 aes(RandomBytes(32));
    Bytes block = RandomBytes(16);
    uint8_t enc[2][16], dec[2][16];
    for (int path = 0; path < 2; ++path) {
      internal::ScopedKernels guard(path == 0 ? internal::PortableKernels()
                                              : internal::HardwareKernels());
      aes.EncryptBlock(block.data(), enc[path]);
      aes.DecryptBlock(block.data(), dec[path]);
    }
    ASSERT_TRUE(std::equal(enc[0], enc[0] + 16, enc[1])) << "case " << i;
    ASSERT_TRUE(std::equal(dec[0], dec[0] + 16, dec[1])) << "case " << i;
  }
}

// DET cells are byte-identical across paths, and RND cells written by one
// path decrypt under the other.
TEST_F(KernelDifferentialTest, CellsInteroperateAcrossPaths) {
  if (!internal::CpuHasShaNi() && !internal::CpuHasAesNi()) {
    GTEST_SKIP() << "CPU lacks SHA-NI and AES-NI";
  }
  const internal::Kernels* paths[] = {&internal::PortableKernels(),
                                      &internal::HardwareKernels()};
  for (int i = 0; i < 200; ++i) {
    Bytes cek = RandomBytes(32);
    Bytes pt = RandomBytes(Uniform(0, 70));
    Bytes det[2], rnd[2];
    for (int p = 0; p < 2; ++p) {
      internal::ScopedKernels guard(*paths[p]);
      CellCodec codec(cek);
      det[p] = codec.Encrypt(pt, EncryptionScheme::kDeterministic);
      rnd[p] = codec.Encrypt(pt, EncryptionScheme::kRandomized);
    }
    ASSERT_EQ(det[0], det[1]) << "case " << i;
    for (int p = 0; p < 2; ++p) {
      internal::ScopedKernels guard(*paths[1 - p]);
      CellCodec codec(cek);
      auto back = codec.Decrypt(rnd[p]);
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      EXPECT_EQ(*back, pt);
    }
  }
}

}  // namespace
}  // namespace aedb::crypto
