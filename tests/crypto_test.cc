/**
 * @file
 * Crypto library tests against published vectors: SHA-256 (FIPS 180-4),
 * HMAC-SHA256 (RFC 4231), AES-128 (FIPS 197), plus roundtrip/property
 * tests for CTR mode, DRBG, 256-bit field arithmetic, DH, and
 * signatures, and known-answer pins for DH and the Schnorr chain.
 */
#include <gtest/gtest.h>

#include "attest/keys.hh"
#include "base/log.hh"
#include "base/rng.hh"
#include "crypto/aes.hh"
#include "crypto/dh.hh"
#include "crypto/drbg.hh"
#include "crypto/field256.hh"
#include "crypto/hmac.hh"
#include "crypto/sha256.hh"
#include "crypto/sig.hh"

namespace veil::crypto {
namespace {

TEST(Sha256, EmptyString)
{
    auto d = Sha256::hash(nullptr, 0);
    EXPECT_EQ(digestHex(d),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc)
{
    auto d = Sha256::hash("abc", 3);
    EXPECT_EQ(digestHex(d),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage)
{
    const char *msg = "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
    auto d = Sha256::hash(msg, strlen(msg));
    EXPECT_EQ(digestHex(d),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs)
{
    Sha256 ctx;
    std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i)
        ctx.update(chunk);
    EXPECT_EQ(digestHex(ctx.finish()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot)
{
    Rng rng(42);
    Bytes data = rng.bytes(3000);
    Sha256 ctx;
    size_t off = 0;
    size_t steps[] = {1, 63, 64, 65, 100, 999, 1708};
    for (size_t s : steps) {
        ctx.update(data.data() + off, s);
        off += s;
    }
    ASSERT_EQ(off, data.size());
    EXPECT_EQ(ctx.finish(), Sha256::hash(data));
}

TEST(Sha256, BlockBoundaryLengths)
{
    // Known digests at the padding boundaries: empty, 55 (max single
    // block with padding), 56 (forces a second block), 64, 65.
    struct Case
    {
        size_t len;
        const char *hex;
    };
    const Case cases[] = {
        {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
        {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
        {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
        {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
        {65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0"},
    };
    for (const Case &c : cases) {
        Bytes msg(c.len, 'a');
        EXPECT_EQ(digestHex(Sha256::hash(msg)), c.hex) << "len=" << c.len;
    }
}

TEST(Sha256, ChunkSplitsAgreeAcrossBlockBoundaries)
{
    Rng rng(17);
    Bytes data = rng.bytes(300);
    for (size_t len : {size_t(0), size_t(1), size_t(55), size_t(56),
                       size_t(57), size_t(63), size_t(64), size_t(65),
                       size_t(127), size_t(128), size_t(129), size_t(300)}) {
        Digest one_shot = Sha256::hash(data.data(), len);
        for (size_t split = 0; split <= len; split += 13) {
            Sha256 ctx;
            ctx.update(data.data(), split);
            ctx.update(data.data() + split, len - split);
            EXPECT_EQ(ctx.finish(), one_shot)
                << "len=" << len << " split=" << split;
        }
    }
}

TEST(Sha256, PortableMatchesDispatched)
{
    Rng rng(18);
    for (size_t len : {size_t(0), size_t(1), size_t(63), size_t(64),
                       size_t(65), size_t(4096), size_t(4097)}) {
        Bytes data = rng.bytes(len);
        Sha256 portable(Sha256::Impl::Portable);
        portable.update(data);
        EXPECT_EQ(portable.finish(), Sha256::hash(data)) << "len=" << len;
    }
}

TEST(Sha256, EmptyUpdateMidBlockLeavesDigestUnchanged)
{
    Bytes head(37, 0x5a), tail(50, 0xa5);
    Sha256 ctx;
    ctx.update(head); // partial block buffered
    ctx.update(nullptr, 0);
    ctx.update(tail);
    ctx.update(nullptr, 0);

    Bytes full(head);
    full.insert(full.end(), tail.begin(), tail.end());
    EXPECT_EQ(ctx.finish(), Sha256::hash(full));
}

TEST(Sha256, ClonedMidstateContinuesIndependently)
{
    Bytes head(100, 0x31), tail_a(100, 0x32), tail_b(100, 0x33);
    Sha256 base;
    base.update(head);

    Sha256 a = base; // cloned midstate
    Sha256 b = base;
    a.update(tail_a);
    b.update(tail_b);

    Bytes full_a(head), full_b(head);
    full_a.insert(full_a.end(), tail_a.begin(), tail_a.end());
    full_b.insert(full_b.end(), tail_b.begin(), tail_b.end());
    EXPECT_EQ(a.finish(), Sha256::hash(full_a));
    EXPECT_EQ(b.finish(), Sha256::hash(full_b));
}

TEST(HmacSha256, Rfc4231Case1)
{
    Bytes key(20, 0x0b);
    auto d = HmacSha256::mac(key, "Hi There", 8);
    EXPECT_EQ(digestHex(d),
              "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2)
{
    Bytes key = {'J', 'e', 'f', 'e'};
    const char *msg = "what do ya want for nothing?";
    auto d = HmacSha256::mac(key, msg, strlen(msg));
    EXPECT_EQ(digestHex(d),
              "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, LongKeyIsHashed)
{
    // RFC 4231 case 6: 131-byte key of 0xaa, "Test Using Larger Than
    // Block-Size Key - Hash Key First".
    Bytes key(131, 0xaa);
    const char *msg = "Test Using Larger Than Block-Size Key - Hash Key First";
    auto d = HmacSha256::mac(key, msg, strlen(msg));
    EXPECT_EQ(digestHex(d),
              "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, Rfc4231Case3)
{
    Bytes key(20, 0xaa);
    Bytes msg(50, 0xdd);
    auto d = HmacSha256::mac(key, msg);
    EXPECT_EQ(digestHex(d),
              "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, Rfc4231Case4)
{
    Bytes key;
    for (uint8_t b = 0x01; b <= 0x19; ++b)
        key.push_back(b);
    Bytes msg(50, 0xcd);
    auto d = HmacSha256::mac(key, msg);
    EXPECT_EQ(digestHex(d),
              "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(HmacSha256, Rfc4231Case7LongKeyLongData)
{
    Bytes key(131, 0xaa);
    const char *msg =
        "This is a test using a larger than block-size key and a larger than "
        "block-size data. The key needs to be hashed before being used by "
        "the HMAC algorithm.";
    auto d = HmacSha256::mac(key, msg, strlen(msg));
    EXPECT_EQ(digestHex(d),
              "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(HmacKey, MidstateMatchesRawKeyPath)
{
    Rng rng(31);
    for (size_t key_len : {size_t(0), size_t(4), size_t(32), size_t(64),
                           size_t(65), size_t(131)}) {
        Bytes key = rng.bytes(key_len);
        Bytes msg = rng.bytes(200);
        HmacKey hk(key);
        // One-shot via midstates vs the raw-key constructor path.
        EXPECT_EQ(hk.mac(msg), HmacSha256::mac(key, msg))
            << "key_len=" << key_len;
        // Incremental context resumed from the key context.
        HmacSha256 ctx(hk);
        ctx.update(msg.data(), 100);
        ctx.update(msg.data() + 100, msg.size() - 100);
        EXPECT_EQ(ctx.finish(), HmacSha256::mac(key, msg))
            << "key_len=" << key_len;
    }
}

TEST(HmacKey, ReusableAcrossMessages)
{
    Bytes key(32, 0x77);
    HmacKey hk(key);
    Bytes m1 = {'a', 'b', 'c'};
    Bytes m2 = {'x', 'y'};
    Digest d1 = hk.mac(m1);
    EXPECT_EQ(hk.mac(m2), HmacSha256::mac(key, m2));
    // Reuse after another message still matches a fresh computation.
    EXPECT_EQ(hk.mac(m1), d1);
}

TEST(Aes128, Fips197Vector)
{
    AesKey key;
    AesBlock pt, expect;
    auto kb = hexDecode("000102030405060708090a0b0c0d0e0f");
    auto pb = hexDecode("00112233445566778899aabbccddeeff");
    auto cb = hexDecode("69c4e0d86a7b0430d8cdb78070b4c55a");
    std::copy(kb.begin(), kb.end(), key.begin());
    std::copy(pb.begin(), pb.end(), pt.begin());
    std::copy(cb.begin(), cb.end(), expect.begin());

    Aes128 aes(key);
    EXPECT_EQ(aes.encryptBlock(pt), expect);
    EXPECT_EQ(aes.decryptBlock(expect), pt);
}

TEST(Aes128, EncryptDecryptRandomBlocks)
{
    Rng rng(7);
    AesKey key;
    rng.fill(key.data(), key.size());
    Aes128 aes(key);
    for (int i = 0; i < 50; ++i) {
        AesBlock b;
        rng.fill(b.data(), b.size());
        EXPECT_EQ(aes.decryptBlock(aes.encryptBlock(b)), b);
    }
}

TEST(Aes128, Sp80038aEcbVectors)
{
    // NIST SP 800-38A F.1.1/F.1.2 (ECB-AES128), four blocks.
    AesKey key;
    auto kb = hexDecode("2b7e151628aed2a6abf7158809cf4f3c");
    std::copy(kb.begin(), kb.end(), key.begin());
    Aes128 aes(key);

    const char *pt_hex[] = {
        "6bc1bee22e409f96e93d7e117393172a",
        "ae2d8a571e03ac9c9eb76fac45af8e51",
        "30c81c46a35ce411e5fbc1191a0a52ef",
        "f69f2445df4f9b17ad2b417be66c3710",
    };
    const char *ct_hex[] = {
        "3ad77bb40d7a3660a89ecaf32466ef97",
        "f5d3d58503b9699de785895a96fdbaaf",
        "43b1cd7f598ece23881b00e3ed030688",
        "7b0c785e27e8ad3f8223207104725dd4",
    };
    for (int i = 0; i < 4; ++i) {
        AesBlock pt, ct;
        auto pb = hexDecode(pt_hex[i]);
        auto cb = hexDecode(ct_hex[i]);
        std::copy(pb.begin(), pb.end(), pt.begin());
        std::copy(cb.begin(), cb.end(), ct.begin());
        EXPECT_EQ(aes.encryptBlock(pt), ct) << "block " << i;
        EXPECT_EQ(aes.decryptBlock(ct), pt) << "block " << i;
    }
}

TEST(Aes128, Sp80038aCtrKeystream)
{
    // NIST SP 800-38A F.5.1 (CTR-AES128). Our aesCtrXor uses a
    // little-endian nonce||counter block, so the standard's big-endian
    // counter sequence is driven through encryptBlock directly:
    // CT_i = PT_i ^ E_K(counter-block_i), counter block incrementing as
    // a 128-bit big-endian integer from f0f1...feff.
    AesKey key;
    auto kb = hexDecode("2b7e151628aed2a6abf7158809cf4f3c");
    std::copy(kb.begin(), kb.end(), key.begin());
    Aes128 aes(key);

    AesBlock counter;
    auto ib = hexDecode("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
    std::copy(ib.begin(), ib.end(), counter.begin());

    const char *pt_hex[] = {
        "6bc1bee22e409f96e93d7e117393172a",
        "ae2d8a571e03ac9c9eb76fac45af8e51",
        "30c81c46a35ce411e5fbc1191a0a52ef",
        "f69f2445df4f9b17ad2b417be66c3710",
    };
    const char *ct_hex[] = {
        "874d6191b620e3261bef6864990db6ce",
        "9806f66b7970fdff8617187bb9fffdff",
        "5ae4df3edbd5d35e5b4f09020db03eab",
        "1e031dda2fbe03d1792170a0f3009cee",
    };
    for (int i = 0; i < 4; ++i) {
        AesBlock ks = aes.encryptBlock(counter);
        auto pb = hexDecode(pt_hex[i]);
        auto cb = hexDecode(ct_hex[i]);
        for (int j = 0; j < 16; ++j)
            EXPECT_EQ(uint8_t(pb[j] ^ ks[j]), cb[j])
                << "block " << i << " byte " << j;
        // Increment the counter block as a big-endian 128-bit integer.
        for (int j = 15; j >= 0; --j) {
            if (++counter[j] != 0)
                break;
        }
    }
}

TEST(Aes128, TablesPathMatchesDispatched)
{
    Rng rng(12);
    AesKey key;
    rng.fill(key.data(), key.size());
    Aes128 aes(key);
    for (int i = 0; i < 100; ++i) {
        AesBlock b;
        rng.fill(b.data(), b.size());
        EXPECT_EQ(aes.encryptBlockTables(b), aes.encryptBlock(b));
    }
}

TEST(AesCtr, CounterAdvancesPerBlockAndSeedsFromCounter0)
{
    Rng rng(13);
    AesKey key;
    rng.fill(key.data(), key.size());
    Aes128 aes(key);

    // Keystream of blocks [2..3] equals running the same stream from
    // counter0=2: the counter advances exactly once per 16-byte block.
    Bytes zero(64, 0), full(64), tail(32);
    aesCtrXor(aes, 5, 0, zero.data(), full.data(), full.size());
    aesCtrXor(aes, 5, 2, zero.data(), tail.data(), tail.size());
    EXPECT_EQ(Bytes(full.begin() + 32, full.end()), tail);
}

TEST(AesCtr, PartialLengthsMatchBlockwiseStream)
{
    // Every tail length produces a prefix of the full keystream.
    Rng rng(14);
    AesKey key;
    rng.fill(key.data(), key.size());
    Aes128 aes(key);
    Bytes zero(80, 0), full(80);
    aesCtrXor(aes, 3, 0, zero.data(), full.data(), full.size());
    for (size_t len : {size_t(1), size_t(15), size_t(16), size_t(17),
                       size_t(31), size_t(63), size_t(64), size_t(79)}) {
        Bytes out(len);
        aesCtrXor(aes, 3, 0, zero.data(), out.data(), len);
        EXPECT_EQ(out, Bytes(full.begin(), full.begin() + len))
            << "len=" << len;
    }
}

TEST(AesCtr, RoundTripAndNonceSeparation)
{
    Rng rng(9);
    AesKey key;
    rng.fill(key.data(), key.size());
    Aes128 aes(key);

    Bytes pt = rng.bytes(4096 + 13);
    Bytes ct(pt.size()), back(pt.size()), other(pt.size());
    aesCtrXor(aes, 1, 0, pt.data(), ct.data(), pt.size());
    EXPECT_NE(ct, pt);
    aesCtrXor(aes, 1, 0, ct.data(), back.data(), ct.size());
    EXPECT_EQ(back, pt);
    aesCtrXor(aes, 2, 0, ct.data(), other.data(), ct.size());
    EXPECT_NE(other, pt);
}

TEST(HmacDrbg, DeterministicAndSeedSensitive)
{
    HmacDrbg a(Bytes{1, 2, 3});
    HmacDrbg b(Bytes{1, 2, 3});
    HmacDrbg c(Bytes{1, 2, 4});
    auto x = a.generate(64);
    EXPECT_EQ(x, b.generate(64));
    EXPECT_NE(x, c.generate(64));
    // Subsequent output differs from the first (state advances).
    EXPECT_NE(a.generate(64), x);
}

TEST(HmacDrbg, ReseedChangesStream)
{
    HmacDrbg a(Bytes{5});
    HmacDrbg b(Bytes{5});
    a.generate(16);
    b.generate(16);
    a.reseed(Bytes{9, 9});
    EXPECT_NE(a.generate(32), b.generate(32));
}

// ---- field256: fixed-width arithmetic mod 2^256 - c ----
//
// Expected values were computed independently with Python's
// arbitrary-precision integers (pow(), %, *).

U256
hexU(const std::string &hex)
{
    return *U256::fromBytes(hexDecode(hex));
}

std::string
hexOf(const U256 &v)
{
    return hexEncode(v.toBytes());
}

const U256 kAllOnes(std::array<uint64_t, 4>{~0ULL, ~0ULL, ~0ULL, ~0ULL});

/** m + @p delta for a modulus m = 2^256 - c: its low limb is 2^64 - c,
 *  so a small offset never carries into the next limb. */
U256
offset(const U256 &m, int64_t delta)
{
    U256 v = m;
    v.w[0] += static_cast<uint64_t>(delta);
    return v;
}

TEST(Field256, BytesRoundTrip)
{
    LogConfig::setThreshold(LogLevel::Silent);
    const std::string h =
        "deadbeefcafebabe0123456789abcdef00112233445566778899aabbccddeeff";
    EXPECT_EQ(hexOf(hexU(h)), h);
    EXPECT_EQ(hexU(h).w[3], 0xdeadbeefcafebabeULL);
    EXPECT_EQ(hexU(h).w[0], 0x8899aabbccddeeffULL);
    EXPECT_EQ(hexOf(kAllOnes), std::string(64, 'f'));

    // Short inputs are left-padded; extra leading zero bytes are fine;
    // a 257th significant bit is not.
    EXPECT_EQ(*U256::fromBytes(Bytes{0x01, 0x02}), U256(0x0102));
    EXPECT_EQ(*U256::fromBytes(Bytes{}), U256(0));
    Bytes padded(33, 0);
    padded[32] = 7;
    EXPECT_EQ(*U256::fromBytes(padded), U256(7));
    padded[0] = 1;
    EXPECT_FALSE(U256::fromBytes(padded).has_value());

    // toBytes pads to the requested width and refuses to truncate.
    EXPECT_EQ(U256(255).toBytes(1), Bytes{0xff});
    EXPECT_EQ(U256(0x0102).toBytes(4), (Bytes{0, 0, 1, 2}));
    EXPECT_THROW(U256(256).toBytes(1), PanicError);
    EXPECT_THROW(kAllOnes.toBytes(31), PanicError);
}

TEST(Field256, OrderingFollowsTheMostSignificantLimb)
{
    U256 hi(std::array<uint64_t, 4>{0, 0, 0, 1});
    U256 lo(std::array<uint64_t, 4>{~0ULL, ~0ULL, ~0ULL, 0});
    EXPECT_LT(lo, hi);
    EXPECT_GT(hi, lo);
    EXPECT_LT(U256(1), U256(2));
    EXPECT_EQ(U256(5), U256(5));
    EXPECT_LE(kGroupOrder.modulus(), kGroupPrime.modulus());
    EXPECT_TRUE(U256().isZero());
    EXPECT_FALSE(hi.isZero());
}

TEST(Field256, ModuliAreTheGroupPrimeAndItsPredecessor)
{
    EXPECT_EQ(hexOf(kGroupPrime.modulus()),
              "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
    EXPECT_EQ(hexOf(kGroupOrder.modulus()),
              "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2e");
}

TEST(Field256, ReducesInputsAtOrAboveTheModulus)
{
    for (const PseudoMersenne *f : {&kGroupPrime, &kGroupOrder}) {
        const U256 &m = f->modulus();
        U256 m_minus_1 = offset(m, -1);
        U256 m_plus_1 = offset(m, 1);
        EXPECT_EQ(f->reduce(U256(0)), U256(0));
        EXPECT_EQ(f->reduce(U256(1)), U256(1));
        EXPECT_EQ(f->reduce(m_minus_1), m_minus_1);
        EXPECT_LT(m_minus_1, m);
        EXPECT_EQ(f->reduce(m), U256(0));
        EXPECT_EQ(f->reduce(m_plus_1), U256(1));
        // 2^256 - 1 = m + c - 1.
        EXPECT_EQ(f->reduce(kAllOnes), U256(0 - m.w[0] - 1));

        // Out-of-range bases behave as their residues.
        EXPECT_EQ(f->pow(m, U256(3)), U256(0));
        EXPECT_EQ(f->pow(m_plus_1, U256(3)), U256(1));
        EXPECT_EQ(f->mul(m, m_plus_1), U256(0));
        EXPECT_EQ(f->mul(m_plus_1, m_plus_1), U256(1));
        EXPECT_EQ(f->add(m_minus_1, U256(1)), U256(0));
        EXPECT_EQ(f->mul(m_minus_1, m_minus_1), U256(1));
    }
}

TEST(Field256, ProductsNearTheTopExerciseBothFolds)
{
    // (2^256-1)^2 leaves a carry out of the first fold; (2^256-1)(m-1)
    // lands in [m, 2^256) and needs the final subtraction.
    struct Case
    {
        const PseudoMersenne *f;
        const char *sq, *dbl, *by_m_minus_1, *pow_max;
    } cases[] = {
        {&kGroupPrime,
         "000000000000000000000000000000000000000000000001000007a0000e8900",
         "00000000000000000000000000000000000000000000000000000002000007a0",
         "fffffffffffffffffffffffffffffffffffffffffffffffffffffffdfffff85f",
         "ad0a8c73022bdaa5b4e042c6846d1c3811c064b799b934145bf4ab20aa5c5fc8"},
        {&kGroupOrder,
         "000000000000000000000000000000000000000000000001000007a2000e90a1",
         "00000000000000000000000000000000000000000000000000000002000007a2",
         "fffffffffffffffffffffffffffffffffffffffffffffffffffffffdfffff85d",
         "af4454b8f573f0bd385794dfc2961f5966d5c7d1a94ca3b5e88970f48814911f"},
    };
    for (const Case &c : cases) {
        U256 m_minus_1 = offset(c.f->modulus(), -1);
        EXPECT_EQ(hexOf(c.f->mul(kAllOnes, kAllOnes)), c.sq);
        EXPECT_EQ(hexOf(c.f->add(kAllOnes, kAllOnes)), c.dbl);
        EXPECT_EQ(hexOf(c.f->mul(kAllOnes, m_minus_1)), c.by_m_minus_1);
        EXPECT_EQ(hexOf(c.f->mul(m_minus_1, kAllOnes)), c.by_m_minus_1);
        EXPECT_EQ(hexOf(c.f->pow(kAllOnes, kAllOnes)), c.pow_max);
    }
}

TEST(Field256, MulAndAddMatchReferenceVectors)
{
    struct Case
    {
        const PseudoMersenne *f;
        bool mul;
        const char *a, *b, *want;
    } cases[] = {
        {&kGroupPrime, true,
         "3f372617f0baef3a86f0ce2ea6ec39c1c15521b1b3dca50a9daa37e51b591d75",
         "732242fda8902e3212979bfcbbeb508f4a800646417a8105bc3199944567ceb1",
         "91eaa6b192827e66bf1e550840bcb172e9763358c9546085a8863c4c73e5385e"},
        {&kGroupPrime, true,
         "e8af30f7c70b53bf64d0b50f658c6762df7142dcaf29e6f877744cca4d909eb2",
         "cecf4f4e5ba8078050cef798e6c648e7deeda8b23927f7d64375d0341e4f6f2a",
         "389bb2af319503c2ae3bdb5b0eae44bbd41955a1efbc6678671a83add9b2a86f"},
        {&kGroupPrime, true,
         "293a9acc2652f8ff842a2f9da1b4ba07a1fa7d4acde560db5c54e05b42a9ba21",
         "11e760a5a6d5b30a02b7075d2a3a0c78467c0714a9fbd797aa59c1698d242349",
         "34ce24be4a978fa93e8f37a0b268fb7582722a85af95efd883b6039d07be9c98"},
        {&kGroupPrime, false,
         "daa4ed3c3454fae446287225154d1eb0071d14815649f8e998466a921f7ea79c",
         "e57b37e7704b3d09ef2eab42fd8cfe3395522f9a67574c0261c2df96fa5e2d63",
         "c0202523a4a037ee35571d6812da1ce39c6f441bbda144ebfa094a2a19dcd8d0"},
        {&kGroupPrime, false,
         "942af46d1c8d5358e2db0c01afd798c2a40f9ca3df62692c182a3add9b872a76",
         "bf3ba33a183c74e2dd66a3582e62fe865d3ffd11a23c1698a32dc48296ce3859",
         "536697a734c9c83bc041af59de3a9749014f99b5819e7fc4bb57ff61325566a0"},
        {&kGroupPrime, false,
         "9fc6245573dda73245552a83319f69e3ac18900483872e757c93a36cdff27e9f",
         "1f05f4d11a38b927412ecd08801f772d4804ef24cc5994d07c17d84637db2982",
         "becc19268e1660598683f78bb1bee110f41d7f294fe0c345f8ab7bb317cda821"},
        {&kGroupOrder, true,
         "29663157072ad68b1e47921f47d9e8754754665a16ebc80fffcd88b9d170d65a",
         "6cd92a4017cdc79a960066c386988190afaaa7131d26e31369703feebd8700eb",
         "03768031a0eccfd4922fd8cefafce324cf2de87e9f7cd7b427c7ac772db63302"},
        {&kGroupOrder, true,
         "4f3d01447485d16562fe005b88ebf5e62b1a7ae1af748c55f9493d417afdf260",
         "41a204e918485df7d3a1c30b986f30426aedf88b6fe205d475b728bf7c208071",
         "56888466435620f5e06442ead63ec73cf74b6416bdc0aebf09ff7328f52b6d52"},
        {&kGroupOrder, true,
         "7d32da7cf063a1049d88ae97dd8e5608730115443c7bc0fc64e24875797a05ab",
         "70ffec24924a5cd7444c044fb416aad97d32a82f24af1bee91b002ee1102c9f5",
         "11f30408c3e9e4b4780a87ea76696a4ac41b1db59c1081f29a54d5f11ffcc11d"},
        {&kGroupOrder, false,
         "0552d4c06c50f5ccfcbbd0fff1a58c2e67db15cab473e920d34a2c3c04e4217b",
         "5b08b56f437743f778965416f06b36b15e32102d91c44cbdb5b07e1458f52363",
         "605b8a2fafc839c475522516e210c2dfc60d25f8463835de88faaa505dd944de"},
        {&kGroupOrder, false,
         "cc3681ee782143c28f547b62a0dff8d30af4a5a4304f564987b31dc04d628fed",
         "067282494ffca60331407caa08e743c2190b6895634d0cd9186984a4418e0b03",
         "d2a90437c81de9c5c094f80ca9c73c9524000e39939c6322a01ca2648ef09af0"},
        {&kGroupOrder, false,
         "cdfb33acefa638f18585c65548576b8d81b4feac9606f7d80017e256fb9fb699",
         "c663425b256d6ff3f4d9a89d08feeac81d21cc56406493d6fd632c395bb7f552",
         "945e76081513a8e57a5f6ef2515656559ed6cb02d66b8baefd7b0e915757afbd"},
    };
    for (const Case &c : cases) {
        U256 a = hexU(c.a), b = hexU(c.b);
        U256 got = c.mul ? c.f->mul(a, b) : c.f->add(a, b);
        EXPECT_EQ(hexOf(got), c.want) << c.a << (c.mul ? " * " : " + ") << c.b;
        U256 swapped = c.mul ? c.f->mul(b, a) : c.f->add(b, a);
        EXPECT_EQ(swapped, got);
    }
}

TEST(Field256, MulMatchesU64)
{
    Rng rng(22);
    for (int i = 0; i < 200; ++i) {
        uint64_t a = rng.next();
        uint64_t b = rng.next();
        unsigned __int128 expect = static_cast<unsigned __int128>(a) * b;
        U256 want(std::array<uint64_t, 4>{static_cast<uint64_t>(expect),
                                          static_cast<uint64_t>(expect >> 64),
                                          0, 0});
        EXPECT_EQ(kGroupPrime.mul(U256(a), U256(b)), want);
        EXPECT_EQ(kGroupOrder.mul(U256(a), U256(b)), want);
    }
}

TEST(Field256, PowEdgeExponents)
{
    const U256 g(kGroupGenerator);
    // Exponent 0 gives 1 for every base, including 0; exponent 1 gives
    // the reduced base.
    EXPECT_EQ(kGroupPrime.pow(g, U256(0)), U256(1));
    EXPECT_EQ(kGroupPrime.pow(U256(0), U256(0)), U256(1));
    EXPECT_EQ(kGroupPrime.pow(U256(0), U256(9)), U256(0));
    EXPECT_EQ(kGroupPrime.pow(g, U256(1)), g);
    EXPECT_EQ(kGroupPrime.pow(kAllOnes, U256(1)),
              kGroupPrime.reduce(kAllOnes));
    // Every window zero but one; top windows zero; all windows full.
    EXPECT_EQ(hexOf(kGroupPrime.pow(g, U256(0x10))),
              "0000000000000000000000000000000000000000000000000000002386f26fc1");
    U256 low252(std::array<uint64_t, 4>{~0ULL, ~0ULL, ~0ULL, ~0ULL >> 4});
    EXPECT_EQ(hexOf(kGroupPrime.pow(g, low252)),
              "5473c714e5f561968308016578bbe2e011ed0ccf6310c8b3ca7c912a9e777037");
    EXPECT_EQ(hexOf(kGroupPrime.pow(g, kAllOnes)),
              "39b0ac0df15233177d413295e9f5f3bd0f9c7a79f50b874c0fbea90d1f41d50c");
    EXPECT_EQ(hexOf(kGroupOrder.pow(g, kAllOnes)),
              "48e8f7d9c9b4dfc1519d87bffec2f959b35be21ac298064976153000d092a24b");

    struct Case
    {
        const char *base, *exp, *want;
    } cases[] = {
        {"2eb1e04c43b94ff3802bb7a0df7bae224012b4913ae398480074bfa332f439e7",
         "b8ae9b964a978a7054ff78d8eac99f4eae1ca9399a9aed623535cafd3fa44a68",
         "89c9502629a4d153bdb0017dc65e90ba2b8fb18a108b0f637c696816adb72c54"},
        {"bdc3428f9888d80febf064468fa52057081257d15e657926e542b338c2f770ae",
         "03284254d765cec7a503877782162cff2882c8edc1dbaef4c981d39df13b5080",
         "ecac9146710a28bd6473a01b1b3db945971fa85bfaafe489bbebdebc2c8e0e36"},
        {"8dbbbca18bc2db0e63571e05f5c0fc1f3eafcf2162550ba77d8078455dd0f901",
         "000000000000000000000000000000000000000000000000e8eeaf9cc600339d",
         "79e151f9237c62aafa1283c4c493cf888c5ee016e672414dcb54fb83dfcfb3e0"},
    };
    for (const Case &c : cases)
        EXPECT_EQ(hexOf(kGroupPrime.pow(hexU(c.base), hexU(c.exp))), c.want);
}

TEST(Field256, GroupIdentities)
{
    Rng rng(24);
    const U256 g(kGroupGenerator);
    const U256 &p_minus_1 = kGroupOrder.modulus();
    for (int i = 0; i < 20; ++i) {
        U256 a = U256::fromBytes(rng.bytes(32).data());
        U256 b = U256::fromBytes(rng.bytes(32).data());
        // g^(a+b) = g^a * g^b, with exponents added in Z_{p-1}.
        EXPECT_EQ(kGroupPrime.pow(g, kGroupOrder.add(a, b)),
                  kGroupPrime.mul(kGroupPrime.pow(g, a),
                                  kGroupPrime.pow(g, b)));
        // (g^a)^b = g^(a*b mod p-1).
        EXPECT_EQ(kGroupPrime.pow(kGroupPrime.pow(g, a), b),
                  kGroupPrime.pow(g, kGroupOrder.mul(a, b)));
        // Fermat: a^(p-1) = 1 for a != 0 mod p.
        if (!kGroupPrime.reduce(a).isZero()) {
            EXPECT_EQ(kGroupPrime.pow(a, p_minus_1), U256(1));
        }
    }
}

/** Miller-Rabin on the modulus of @p f with the first 16 prime bases. */
bool
modulusIsProbablePrime(const PseudoMersenne &f)
{
    const U256 &n = f.modulus();
    U256 n_minus_1 = offset(n, -1);
    // n - 1 = d * 2^s with d odd.
    U256 d = n_minus_1;
    int s = 0;
    while ((d.w[0] & 1) == 0) {
        for (size_t i = 0; i < 4; ++i)
            d.w[i] = (d.w[i] >> 1) | (i < 3 ? d.w[i + 1] << 63 : 0);
        ++s;
    }
    for (uint64_t base : {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
                          43, 47, 53}) {
        U256 x = f.pow(U256(base), d);
        if (x == U256(1) || x == n_minus_1)
            continue;
        bool witness = true;
        for (int i = 1; i < s && witness; ++i) {
            x = f.mul(x, x);
            witness = x != n_minus_1;
        }
        if (witness)
            return false;
    }
    return true;
}

TEST(Field256, DhGroupPrimeIsPrime)
{
    EXPECT_TRUE(modulusIsProbablePrime(kGroupPrime));
    // The even exponent modulus q is composite; so is 2^256 - 3.
    EXPECT_FALSE(modulusIsProbablePrime(kGroupOrder));
    EXPECT_FALSE(modulusIsProbablePrime(PseudoMersenne(3)));
}

TEST(Dh, KeyAgreementMatches)
{
    HmacDrbg da(Bytes{'a'});
    HmacDrbg db(Bytes{'b'});
    DhKeyPair alice = dhGenerate(da);
    DhKeyPair bob = dhGenerate(db);
    EXPECT_NE(alice.publicKey, bob.publicKey);

    Bytes s1 = dhSharedSecret(alice.secret, bob.publicKey);
    Bytes s2 = dhSharedSecret(bob.secret, alice.publicKey);
    EXPECT_EQ(s1, s2);
    EXPECT_EQ(s1.size(), 32u);
}

TEST(Dh, RejectsOutOfRangePublic)
{
    LogConfig::setThreshold(LogLevel::Silent);
    HmacDrbg d(Bytes{'x'});
    DhKeyPair kp = dhGenerate(d);
    Bytes zero(32, 0);
    EXPECT_THROW(dhSharedSecret(kp.secret, zero), FatalError);
    Bytes huge(33, 0xff);
    EXPECT_THROW(dhSharedSecret(kp.secret, huge), FatalError);
}

TEST(Dh, RejectsDegenerateSmallSubgroupPublic)
{
    // Regression: pub = 1 and pub = p-1 used to pass the range check
    // and pin the shared secret into a tiny, attacker-known set (a
    // small-subgroup key-substitution attack by the untrusted relay).
    LogConfig::setThreshold(LogLevel::Silent);
    HmacDrbg d(Bytes{'x'});
    DhKeyPair kp = dhGenerate(d);

    Bytes one = U256(1).toBytes();
    EXPECT_THROW(dhSharedSecret(kp.secret, one), FatalError);

    Bytes p_minus_1 = kGroupOrder.modulus().toBytes();
    EXPECT_THROW(dhSharedSecret(kp.secret, p_minus_1), FatalError);

    // p itself (== 0 mod p) and anything above stay rejected too.
    EXPECT_THROW(dhSharedSecret(kp.secret, kGroupPrime.modulus().toBytes()),
                 FatalError);
    EXPECT_THROW(dhSharedSecret(kp.secret, kAllOnes.toBytes()), FatalError);

    // The largest and smallest live elements are still accepted.
    Bytes p_minus_2 = offset(kGroupPrime.modulus(), -2).toBytes();
    EXPECT_EQ(dhSharedSecret(kp.secret, p_minus_2).size(), 32u);
    Bytes two = U256(2).toBytes();
    EXPECT_EQ(dhSharedSecret(kp.secret, two).size(), 32u);
}

TEST(Dh, SessionKeyDerivationIsDeterministic)
{
    Bytes secret(32, 0x42);
    SessionKeys k1 = deriveSessionKeys(secret);
    SessionKeys k2 = deriveSessionKeys(secret);
    EXPECT_EQ(k1.encKey, k2.encKey);
    EXPECT_EQ(k1.macKey, k2.macKey);
    // enc and mac keys are independent.
    EXPECT_NE(Bytes(k1.encKey.begin(), k1.encKey.end()),
              Bytes(k1.macKey.begin(), k1.macKey.begin() + 16));
}

TEST(Sig, SignVerifyAndDomainSeparation)
{
    Bytes key = {1, 2, 3, 4};
    Digest d = Sha256::hash("module", 6);
    Signature s = signDigest(key, "module", d);
    EXPECT_TRUE(verifyDigest(key, "module", d, s));
    EXPECT_FALSE(verifyDigest(key, "psp-report", d, s));
    Bytes other_key = {9, 9};
    EXPECT_FALSE(verifyDigest(other_key, "module", d, s));
    s[0] ^= 1;
    EXPECT_FALSE(verifyDigest(key, "module", d, s));
}

TEST(AsymSig, SignVerifyRoundTrip)
{
    HmacDrbg d(Bytes{'k'});
    AsymKeyPair kp = asymGenerate(d);
    EXPECT_EQ(kp.publicKey.size(), 32u);
    Digest m = Sha256::hash("report", 6);
    AsymSignature sig = asymSign(kp, "psp-report", m);
    EXPECT_TRUE(asymVerify(kp.publicKey, "psp-report", m, sig));
}

TEST(AsymSig, DeterministicNonce)
{
    // RFC-6979-style nonces: same key + domain + digest => same
    // signature (the simulator's reproducibility contract).
    HmacDrbg d(Bytes{'k'});
    AsymKeyPair kp = asymGenerate(d);
    Digest m = Sha256::hash("report", 6);
    EXPECT_EQ(asymSign(kp, "psp-report", m), asymSign(kp, "psp-report", m));
}

TEST(AsymSig, RejectsTamperDomainAndWrongKey)
{
    HmacDrbg d1(Bytes{'1'}), d2(Bytes{'2'});
    AsymKeyPair kp = asymGenerate(d1);
    AsymKeyPair other = asymGenerate(d2);
    Digest m = Sha256::hash("report", 6);
    AsymSignature sig = asymSign(kp, "psp-report", m);

    // Wrong domain, wrong digest, wrong key, flipped bit: all refused.
    EXPECT_FALSE(asymVerify(kp.publicKey, "veil-cert", m, sig));
    Digest m2 = Sha256::hash("other", 5);
    EXPECT_FALSE(asymVerify(kp.publicKey, "psp-report", m2, sig));
    EXPECT_FALSE(asymVerify(other.publicKey, "psp-report", m, sig));
    for (size_t at : {size_t{0}, size_t{31}, size_t{32}, size_t{63}}) {
        AsymSignature bad = sig;
        bad[at] ^= 1;
        EXPECT_FALSE(asymVerify(kp.publicKey, "psp-report", m, bad));
    }
}

TEST(AsymSig, ResponseIsReducedModOrderNotPrime)
{
    // Rebuild a signature by hand for a nonce and key chosen so that
    // k + e*x wraps past both p and p-1: the exponent of g lives in
    // Z_{p-1}, so only the response reduced mod q = p-1 verifies.
    const U256 g(kGroupGenerator);
    AsymKeyPair kp;
    kp.secret = offset(kGroupPrime.modulus(), -3);
    kp.publicKey = kGroupPrime.pow(g, kp.secret).toBytes();
    U256 k = offset(kGroupPrime.modulus(), -5);
    Bytes r = kGroupPrime.pow(g, k).toBytes();
    Digest m = Sha256::hash("report", 6);

    Sha256 h;
    h.update("psp-report", 10);
    uint8_t sep = 0;
    h.update(&sep, 1);
    h.update(r.data(), r.size());
    h.update(kp.publicKey.data(), kp.publicKey.size());
    h.update(m.data(), m.size());
    U256 e = kGroupOrder.reduce(U256::fromBytes(h.finish().data()));

    U256 s_q = kGroupOrder.add(k, kGroupOrder.mul(e, kp.secret));
    U256 s_p = kGroupPrime.add(k, kGroupPrime.mul(e, kp.secret));
    ASSERT_NE(s_q, s_p);
    auto assemble = [&](const U256 &s) {
        AsymSignature sig{};
        Bytes sb = s.toBytes();
        std::copy(r.begin(), r.end(), sig.begin());
        std::copy(sb.begin(), sb.end(), sig.begin() + 32);
        return sig;
    };
    EXPECT_TRUE(asymVerify(kp.publicKey, "psp-report", m, assemble(s_q)));
    EXPECT_FALSE(asymVerify(kp.publicKey, "psp-report", m, assemble(s_p)));

    // asymSign's own response is canonical (< q) and verifies.
    AsymSignature sig = asymSign(kp, "psp-report", m);
    EXPECT_LT(U256::fromBytes(sig.data() + 32), kGroupOrder.modulus());
    EXPECT_TRUE(asymVerify(kp.publicKey, "psp-report", m, sig));
}

TEST(AsymSig, RejectsDegeneratePublicKey)
{
    HmacDrbg d(Bytes{'k'});
    AsymKeyPair kp = asymGenerate(d);
    Digest m = Sha256::hash("report", 6);
    AsymSignature sig = asymSign(kp, "psp-report", m);

    for (const U256 &y : {U256(0), U256(1), kGroupOrder.modulus(),
                          kGroupPrime.modulus(), kAllOnes}) {
        EXPECT_FALSE(asymVerify(y.toBytes(), "psp-report", m, sig));
    }
    EXPECT_FALSE(asymVerify(Bytes{}, "psp-report", m, sig));
}

// ---- Known-answer pins ----
//
// Bytes recorded from fixed DRBG seeds. Every report, certificate,
// signature and channel key in the simulator derives from these
// primitives, so any change to the group arithmetic that moves a
// single output byte fails here first.

TEST(KnownAnswer, DhPublicKeysAndSharedSecret)
{
    HmacDrbg da(Bytes{'k', 'a', 't', '-', 'a'});
    HmacDrbg db(Bytes{'k', 'a', 't', '-', 'b'});
    DhKeyPair a = dhGenerate(da);
    DhKeyPair b = dhGenerate(db);
    EXPECT_EQ(hexEncode(a.publicKey),
              "534de0062c4feb6d6ff5d27aac8049cf"
              "055cac8241ee62af7307bed18a347219");
    EXPECT_EQ(hexEncode(b.publicKey),
              "f2d097f2f4ae3a6f3cc4e09d63fe2cc4"
              "b964869d3cf3041b24ee80b547dcd9f6");
    const char *shared = "c1d77056176ece227d44b4ee6359f55a"
                         "0059c46b50faa2730c480fcf3b4dcab6";
    EXPECT_EQ(hexEncode(dhSharedSecret(a.secret, b.publicKey)), shared);
    EXPECT_EQ(hexEncode(dhSharedSecret(b.secret, a.publicKey)), shared);
}

TEST(KnownAnswer, SchnorrSignature)
{
    HmacDrbg d(Bytes{'k', 'a', 't', '-', 's'});
    AsymKeyPair kp = asymGenerate(d);
    EXPECT_EQ(hexEncode(kp.publicKey),
              "12ae8d6e998ea9a4c485d13852bfacf2"
              "cb590af5e59d4a233789af147c0d3992");
    Digest m = Sha256::hash("kat-message", 11);
    AsymSignature sig = asymSign(kp, "psp-report", m);
    EXPECT_EQ(hexEncode(Bytes(sig.begin(), sig.end())),
              "181092586b6d5ac0a7be1fb93544c8d9"
              "18d96bffa4e74b025d6109b04377942e"
              "754de7d28abab08aa1ed134c8c702349"
              "b369e5c6e0e9d177fa02492b2442973e");
    EXPECT_TRUE(asymVerify(kp.publicKey, "psp-report", m, sig));
}

TEST(KnownAnswer, PlatformRootAndCertChain)
{
    Bytes seed = {'k', 'a', 't', '-', 'p', 's', 'p'};
    EXPECT_EQ(hexEncode(attest::rootPublicFromSeed(seed)),
              "d75725677df4313f8f037b9e4ea20af0"
              "4e9ac96b44bbcaf8ec310f82287b4ecf");
    attest::PlatformKeys keys(seed, attest::kDefaultTcbVersion);
    const attest::CertChain &c = keys.certChain();
    auto hex = [](const AsymSignature &s) {
        return hexEncode(Bytes(s.begin(), s.end()));
    };
    EXPECT_EQ(hex(c.root.signature),
              "b673812253fd944d77b3ac2f43919c9c"
              "9c2aac195d5d9e6393433a86458a2f7f"
              "2d3e55e54798c048b3957ba86cc5019b"
              "30dcfcde5ff2e0115745e5a13bad9fa6");
    EXPECT_EQ(hex(c.signing.signature),
              "796b418e82f5d2e9530c76db0a3e8fb3"
              "f0342a598b1a090f9b16681cf5f7abf0"
              "b594733802dd3b0a4354a85765aaa20b"
              "c6cbf502f222e980bdcbdcf86d64d54d");
    EXPECT_EQ(hex(c.chip.signature),
              "8fa9a550083ec365c8184039032ad663"
              "1fe0b12d13356fd58030e65a3afbcde5"
              "d23326b2e5a30a8c747da0809c1db193"
              "0d874b8a813221e1815bed531acb784a");
}

} // namespace
} // namespace veil::crypto
