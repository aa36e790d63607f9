/**
 * @file
 * Crypto library tests against published vectors: SHA-256 (FIPS 180-4),
 * HMAC-SHA256 (RFC 4231), AES-128 (FIPS 197), plus roundtrip/property
 * tests for CTR mode, DRBG, bignum arithmetic, DH, and signatures.
 */
#include <gtest/gtest.h>

#include "base/log.hh"
#include "base/rng.hh"
#include "crypto/aes.hh"
#include "crypto/bignum.hh"
#include "crypto/dh.hh"
#include "crypto/drbg.hh"
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

TEST(BigInt, HexRoundTrip)
{
    BigInt v = BigInt::fromHex("deadbeefcafebabe1234");
    EXPECT_EQ(v.toHex(), "deadbeefcafebabe1234");
    EXPECT_EQ(BigInt(0).toHex(), "0");
    EXPECT_EQ(BigInt(255).toHex(), "ff");
}

TEST(BigInt, AddSubProperties)
{
    Rng rng(21);
    for (int i = 0; i < 100; ++i) {
        BigInt a = BigInt::fromBytes(rng.bytes(rng.range(1, 24)));
        BigInt b = BigInt::fromBytes(rng.bytes(rng.range(1, 24)));
        BigInt s = BigInt::add(a, b);
        EXPECT_EQ(BigInt::sub(s, b), a);
        EXPECT_EQ(BigInt::sub(s, a), b);
    }
}

TEST(BigInt, MulMatchesU64)
{
    Rng rng(22);
    for (int i = 0; i < 200; ++i) {
        uint32_t a = static_cast<uint32_t>(rng.next());
        uint32_t b = static_cast<uint32_t>(rng.next());
        uint64_t expect = uint64_t(a) * b;
        EXPECT_EQ(BigInt::mul(BigInt(a), BigInt(b)).toHex(),
                  BigInt(expect).toHex());
    }
}

TEST(BigInt, ModMatchesU64)
{
    Rng rng(23);
    for (int i = 0; i < 200; ++i) {
        uint64_t a = rng.next();
        uint64_t m = rng.range(1, ~0ULL);
        EXPECT_EQ(BigInt::mod(BigInt(a), BigInt(m)).toHex(),
                  BigInt(a % m).toHex());
    }
}

TEST(BigInt, ModExpSmallCases)
{
    // 3^5 mod 7 = 5; 2^10 mod 1000 = 24
    EXPECT_EQ(BigInt::modExp(BigInt(3), BigInt(5), BigInt(7)).toHex(), "5");
    EXPECT_EQ(BigInt::modExp(BigInt(2), BigInt(10), BigInt(1000)).toHex(),
              "18"); // 24 = 0x18
}

TEST(BigInt, FermatLittleTheorem)
{
    // a^(p-1) = 1 mod p for prime p = 1000003 and random a.
    BigInt p(1000003);
    Rng rng(24);
    for (int i = 0; i < 20; ++i) {
        BigInt a(rng.range(2, 1000002));
        EXPECT_EQ(BigInt::modExp(a, BigInt(1000002), p).toHex(), "1");
    }
}

TEST(BigInt, MillerRabinClassifiesSmallNumbers)
{
    const uint32_t primes[] = {2, 3, 5, 101, 65537, 1000003};
    const uint32_t composites[] = {4, 9, 100, 65539 * 3, 561 /*Carmichael*/};
    for (uint32_t p : primes)
        EXPECT_TRUE(BigInt::isProbablePrime(BigInt(p))) << p;
    for (uint32_t c : composites)
        EXPECT_FALSE(BigInt::isProbablePrime(BigInt(c))) << c;
}

TEST(BigInt, DhGroupPrimeIsPrime)
{
    BigInt p = BigInt::fromHex(kGroupPrimeHex);
    EXPECT_EQ(p.bitLength(), 256u);
    EXPECT_TRUE(BigInt::isProbablePrime(p));
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

    Bytes one = BigInt(1).toBytes(32);
    EXPECT_THROW(dhSharedSecret(kp.secret, one), FatalError);

    BigInt p = BigInt::fromHex(kGroupPrimeHex);
    Bytes p_minus_1 = BigInt::sub(p, BigInt(1)).toBytes(32);
    EXPECT_THROW(dhSharedSecret(kp.secret, p_minus_1), FatalError);

    // p itself (== 0 mod p) and anything above stay rejected too.
    EXPECT_THROW(dhSharedSecret(kp.secret, p.toBytes(32)), FatalError);

    // The smallest live element is still accepted.
    Bytes two = BigInt(2).toBytes(32);
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

TEST(AsymSig, RejectsDegeneratePublicKey)
{
    HmacDrbg d(Bytes{'k'});
    AsymKeyPair kp = asymGenerate(d);
    Digest m = Sha256::hash("report", 6);
    AsymSignature sig = asymSign(kp, "psp-report", m);

    BigInt p = BigInt::fromHex(kGroupPrimeHex);
    for (const BigInt &y :
         {BigInt(0), BigInt(1), BigInt::sub(p, BigInt(1)), p}) {
        EXPECT_FALSE(asymVerify(y.toBytes(32), "psp-report", m, sig));
    }
    EXPECT_FALSE(asymVerify(Bytes{}, "psp-report", m, sig));
}

} // namespace
} // namespace veil::crypto
