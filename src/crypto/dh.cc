#include "crypto/dh.hh"

#include "base/log.hh"
#include "crypto/hmac.hh"

namespace veil::crypto {

U256
drawExponent(HmacDrbg &drbg)
{
    for (;;) {
        Bytes raw = drbg.generate(32);
        U256 v = U256::fromBytes(raw.data());
        if (v >= U256(2) && v < kGroupOrder.modulus())
            return v;
    }
}

DhKeyPair
dhGenerate(HmacDrbg &drbg)
{
    DhKeyPair kp;
    kp.secret = drawExponent(drbg);
    kp.publicKey = kGroupPrime.pow(U256(kGroupGenerator), kp.secret).toBytes();
    return kp;
}

Bytes
dhSharedSecret(const U256 &secret, const Bytes &their_public)
{
    std::optional<U256> their = U256::fromBytes(their_public);
    // Reject degenerate peer publics, not just out-of-range ones: 0 and
    // 1 fix the shared secret at 0/1, and p-1 (order 2) forces it into
    // {1, p-1} — a small-subgroup attack where the untrusted relay
    // substitutes the public key and then knows the session keys. The
    // live range is 2 <= pub <= p-2.
    if (!their || *their <= U256(1) || *their >= kGroupOrder.modulus())
        fatal("dhSharedSecret: degenerate or out-of-range peer public key");
    return kGroupPrime.pow(*their, secret).toBytes();
}

SessionKeys
deriveSessionKeys(const Bytes &shared_secret)
{
    // HKDF-style: PRK = HMAC(salt="veil-channel-v1", secret),
    // then two expansion blocks.
    Bytes salt(reinterpret_cast<const uint8_t *>("veil-channel-v1"),
               reinterpret_cast<const uint8_t *>("veil-channel-v1") + 15);
    Digest prk = HmacSha256::mac(salt, shared_secret);
    Bytes prk_key(prk.begin(), prk.end());

    Bytes info_enc = {'e', 'n', 'c', 0x01};
    Digest enc_block = HmacSha256::mac(prk_key, info_enc);
    Bytes info_mac = {'m', 'a', 'c', 0x02};
    Digest mac_block = HmacSha256::mac(prk_key, info_mac);

    SessionKeys keys;
    std::copy(enc_block.begin(), enc_block.begin() + 16, keys.encKey.begin());
    std::copy(mac_block.begin(), mac_block.end(), keys.macKey.begin());
    return keys;
}

} // namespace veil::crypto
