/**
 * @file
 * Loopback-only TCP socket layer. Non-blocking semantics throughout:
 * recv on an empty stream and accept on an empty backlog return
 * -EAGAIN, which lets client and server workloads run as interleaved
 * state machines on one kernel context (the multi-process analogue of
 * the paper's ApacheBench/memaslap drivers).
 */
#ifndef VEIL_KERNEL_NET_HH_
#define VEIL_KERNEL_NET_HH_

#include <deque>
#include <map>
#include <vector>

#include "base/bytes.hh"

namespace veil::kern {

using SockId = int64_t;

/**
 * A socket's receive stream: sends append and recvs consume whole
 * spans, copied in bulk. Consumed bytes are dropped when the queue
 * empties, or compacted away once they make up half the buffer.
 */
class ByteQueue
{
  public:
    size_t size() const { return buf_.size() - head_; }
    bool empty() const { return head_ == buf_.size(); }
    void append(const uint8_t *data, size_t len);
    /** Move up to @p len bytes to @p out; returns how many moved. */
    size_t take(uint8_t *out, size_t len);

  private:
    std::vector<uint8_t> buf_;
    size_t head_ = 0; ///< first unread byte of buf_
};

/** One socket endpoint. */
struct Socket
{
    SockId id = -1;
    bool listening = false;
    uint16_t boundPort = 0;
    SockId peer = -1; ///< -1 = not connected
    ByteQueue rx;
    std::deque<SockId> backlog;
    bool peerClosed = false;
};

/** The loopback network stack. */
class NetStack
{
  public:
    SockId create();

    /** Returns 0 or -errno. */
    int64_t bind(SockId s, uint16_t port);
    int64_t listen(SockId s, int backlog);

    /** Loopback connect: synchronous handshake into the backlog. */
    int64_t connect(SockId s, uint16_t port);

    /** Returns the accepted socket id or -EAGAIN. */
    int64_t accept(SockId s);

    /** Returns bytes queued or -errno (EPIPE if peer closed). */
    int64_t send(SockId s, const uint8_t *data, size_t len);

    /** Returns bytes read, 0 on orderly peer close, or -EAGAIN. */
    int64_t recv(SockId s, uint8_t *out, size_t len);

    void close(SockId s);

    bool valid(SockId s) const { return sockets_.count(s) != 0; }
    Socket &sock(SockId s);

    /** Bytes waiting on @p s (test/introspection helper). */
    size_t pending(SockId s) const;

  private:
    std::map<SockId, Socket> sockets_;
    std::map<uint16_t, SockId> listeners_;
    SockId next_ = 1;
};

} // namespace veil::kern

#endif // VEIL_KERNEL_NET_HH_
