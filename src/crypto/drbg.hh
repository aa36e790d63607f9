/**
 * @file
 * HMAC-DRBG with SHA-256 (NIST SP 800-90A). Deterministic random bit
 * generator used wherever the real system would query a hardware RNG:
 * per-enclave paging keys, DH ephemeral secrets, freshness nonces.
 */
#ifndef VEIL_CRYPTO_DRBG_HH_
#define VEIL_CRYPTO_DRBG_HH_

#include "crypto/hmac.hh"

namespace veil::crypto {

/** HMAC-DRBG instance. Reseed by constructing a new instance. */
class HmacDrbg
{
  public:
    /** Instantiate from seed material (entropy || nonce || personalization). */
    explicit HmacDrbg(const Bytes &seed_material);

    /** Generate @p len pseudorandom bytes. */
    Bytes generate(size_t len);

    /** Mix additional input into the state. */
    void reseed(const Bytes &material);

  private:
    void update(const Bytes &provided);
    void setKey(const Digest &k);

    std::array<uint8_t, 32> k_;
    std::array<uint8_t, 32> v_;
    HmacKey key_; ///< midstate cache for K; rebuilt only when K changes
};

} // namespace veil::crypto

#endif // VEIL_CRYPTO_DRBG_HH_
