#include "crypto/sig.hh"

#include "crypto/dh.hh"
#include "crypto/drbg.hh"
#include "crypto/sha256.hh"

namespace veil::crypto {

Signature
signDigest(const Bytes &key, const std::string &domain, const Digest &digest)
{
    HmacSha256 ctx(key);
    ctx.update(domain.data(), domain.size());
    uint8_t sep = 0x00;
    ctx.update(&sep, 1);
    ctx.update(digest.data(), digest.size());
    Digest mac = ctx.finish();
    Signature sig;
    std::copy(mac.begin(), mac.end(), sig.begin());
    return sig;
}

bool
verifyDigest(const Bytes &key, const std::string &domain, const Digest &digest,
             const Signature &sig)
{
    Signature expect = signDigest(key, domain, digest);
    return ctEqual(expect.data(), sig.data(), sig.size());
}

// ---- Schnorr over the dh.hh group ----
//
// Group: Z_p^* with p the dh.hh 256-bit prime and generator g. The
// exponent ring is Z_{p-1} (composite order — simulation strength, per
// the dh.hh parameter note). Sign:
//   k   <- deterministic nonce in [2, p-2]
//   r   = g^k mod p
//   e   = SHA256(domain || 0x00 || r || y || digest) mod (p-1)
//   s   = (k + e*x) mod (p-1)
// Verify: g^s == r * y^e (mod p).

namespace {

U256
challenge(const std::string &domain, const uint8_t *r, const Bytes &y,
          const Digest &digest)
{
    Sha256 h;
    h.update(domain.data(), domain.size());
    uint8_t sep = 0x00;
    h.update(&sep, 1);
    h.update(r, 32);
    h.update(y.data(), y.size());
    h.update(digest.data(), digest.size());
    return kGroupOrder.reduce(U256::fromBytes(h.finish().data()));
}

/** Group-element range check: 2 <= v <= p-2 (rejects the degenerate
 *  order-1/order-2 elements 0, 1 and p-1, mirroring dhSharedSecret). */
bool
elementInRange(const U256 &v)
{
    return v > U256(1) && v < kGroupOrder.modulus();
}

} // namespace

AsymKeyPair
asymGenerate(HmacDrbg &drbg)
{
    AsymKeyPair kp;
    kp.secret = drawExponent(drbg);
    kp.publicKey = kGroupPrime.pow(U256(kGroupGenerator), kp.secret).toBytes();
    return kp;
}

AsymSignature
asymSign(const AsymKeyPair &key, const std::string &domain,
         const Digest &digest)
{
    // Deterministic nonce: DRBG over (secret || domain || digest).
    Bytes seed = key.secret.toBytes();
    appendBytes(seed, domain.data(), domain.size());
    appendBytes(seed, digest.data(), digest.size());
    HmacDrbg drbg(seed);
    U256 k = drawExponent(drbg);

    Bytes r = kGroupPrime.pow(U256(kGroupGenerator), k).toBytes();
    U256 e = challenge(domain, r.data(), key.publicKey, digest);
    U256 s = kGroupOrder.add(k, kGroupOrder.mul(e, key.secret));

    AsymSignature sig{};
    Bytes sb = s.toBytes();
    std::copy(r.begin(), r.end(), sig.begin());
    std::copy(sb.begin(), sb.end(), sig.begin() + 32);
    return sig;
}

bool
asymVerify(const Bytes &public_key, const std::string &domain,
           const Digest &digest, const AsymSignature &sig)
{
    if (public_key.size() != 32)
        return false;
    U256 y = U256::fromBytes(public_key.data());
    if (!elementInRange(y))
        return false;

    U256 r = U256::fromBytes(sig.data());
    U256 s = U256::fromBytes(sig.data() + 32);
    // r must be a live group element; s is an exponent mod p-1 (reject
    // the non-canonical high range to keep signatures non-malleable).
    if (r.isZero() || r >= kGroupPrime.modulus())
        return false;
    if (s >= kGroupOrder.modulus())
        return false;

    U256 e = challenge(domain, sig.data(), public_key, digest);
    U256 lhs = kGroupPrime.pow(U256(kGroupGenerator), s);
    U256 rhs = kGroupPrime.mul(r, kGroupPrime.pow(y, e));
    return lhs == rhs;
}

} // namespace veil::crypto
