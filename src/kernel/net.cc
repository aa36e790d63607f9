#include "kernel/net.hh"

#include <cstring>

#include "base/log.hh"
#include "kernel/uapi.hh"

namespace veil::kern {

void
ByteQueue::append(const uint8_t *data, size_t len)
{
    if (head_ > 0 && head_ * 2 >= buf_.size()) {
        buf_.erase(buf_.begin(), buf_.begin() + head_);
        head_ = 0;
    }
    buf_.insert(buf_.end(), data, data + len);
}

size_t
ByteQueue::take(uint8_t *out, size_t len)
{
    size_t n = std::min(len, size());
    if (n == 0)
        return 0;
    std::memcpy(out, buf_.data() + head_, n);
    head_ += n;
    if (head_ == buf_.size()) {
        buf_.clear();
        head_ = 0;
    }
    return n;
}

SockId
NetStack::create()
{
    SockId id = next_++;
    Socket s;
    s.id = id;
    sockets_[id] = std::move(s);
    return id;
}

Socket &
NetStack::sock(SockId s)
{
    auto it = sockets_.find(s);
    if (it == sockets_.end())
        panic("NetStack: dangling socket");
    return it->second;
}

int64_t
NetStack::bind(SockId s, uint16_t port)
{
    if (!valid(s))
        return -kEBADF;
    if (listeners_.count(port))
        return -kEADDRINUSE;
    sock(s).boundPort = port;
    return 0;
}

int64_t
NetStack::listen(SockId s, int backlog)
{
    if (!valid(s))
        return -kEBADF;
    Socket &sk = sock(s);
    if (sk.boundPort == 0)
        return -kEINVAL;
    sk.listening = true;
    listeners_[sk.boundPort] = s;
    return 0;
}

int64_t
NetStack::connect(SockId s, uint16_t port)
{
    if (!valid(s))
        return -kEBADF;
    auto it = listeners_.find(port);
    if (it == listeners_.end())
        return -kECONNREFUSED;
    Socket &listener = sock(it->second);

    // Server-side endpoint created on handshake.
    SockId server_side = create();
    Socket &client = sock(s);
    Socket &server = sock(server_side);
    client.peer = server_side;
    server.peer = s;
    listener.backlog.push_back(server_side);
    return 0;
}

int64_t
NetStack::accept(SockId s)
{
    if (!valid(s))
        return -kEBADF;
    Socket &sk = sock(s);
    if (!sk.listening)
        return -kEINVAL;
    if (sk.backlog.empty())
        return -kEAGAIN;
    SockId conn = sk.backlog.front();
    sk.backlog.pop_front();
    return conn;
}

int64_t
NetStack::send(SockId s, const uint8_t *data, size_t len)
{
    if (!valid(s))
        return -kEBADF;
    Socket &sk = sock(s);
    if (sk.peer < 0)
        return sk.peerClosed ? -kEPIPE : -kENOTCONN;
    if (!valid(sk.peer) || sock(sk.peer).peerClosed)
        return -kEPIPE;
    Socket &peer = sock(sk.peer);
    peer.rx.append(data, len);
    return static_cast<int64_t>(len);
}

int64_t
NetStack::recv(SockId s, uint8_t *out, size_t len)
{
    if (!valid(s))
        return -kEBADF;
    Socket &sk = sock(s);
    if (sk.peer < 0 && !sk.peerClosed && sk.rx.empty())
        return -kENOTCONN;
    size_t take = sk.rx.take(out, len);
    if (take == 0)
        return sk.peerClosed ? 0 : -kEAGAIN;
    return static_cast<int64_t>(take);
}

void
NetStack::close(SockId s)
{
    if (!valid(s))
        return;
    Socket &sk = sock(s);
    if (sk.listening)
        listeners_.erase(sk.boundPort);
    if (sk.peer >= 0 && valid(sk.peer)) {
        Socket &peer = sock(sk.peer);
        peer.peerClosed = true;
        peer.peer = -1;
    }
    sockets_.erase(s);
}

size_t
NetStack::pending(SockId s) const
{
    auto it = sockets_.find(s);
    return it == sockets_.end() ? 0 : it->second.rx.size();
}

} // namespace veil::kern
