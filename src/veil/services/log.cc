#include "veil/services/log.hh"

#include <cstring>

#include "base/log.hh"
#include "veil/channel.hh"

namespace veil::core {

using namespace snp;

LogService::LogService(Machine &machine, const CvmLayout &layout,
                       VeilMon &monitor)
    : machine_(machine),
      layout_(layout),
      monitor_(monitor),
      base_(layout.logStore),
      end_(layout.logStoreEnd),
      head_(layout.logStore),
      readPos_(layout.logStore)
{
}

void
LogService::handle(Vcpu &cpu, IdcbMessage &msg)
{
    switch (static_cast<VeilOp>(msg.op)) {
      case VeilOp::LogAppend:
        opAppend(cpu, msg);
        break;
      case VeilOp::LogQuery:
        opQuery(cpu, msg);
        break;
      case VeilOp::LogStats:
        opStats(cpu, msg);
        break;
      default:
        msg.status = static_cast<uint64_t>(VeilStatus::Unsupported);
        break;
    }
}

void
LogService::opAppend(Vcpu &cpu, IdcbMessage &msg)
{
    uint32_t len = msg.payloadLen;
    if (len == 0 || len > kIdcbPayloadMax) {
        msg.status = static_cast<uint64_t>(VeilStatus::BadArgs);
        return;
    }
    if (head_ + 4 + len > end_) {
        // The reserved region must be sized so the user retrieves logs
        // before overflow (§6.3); drops are counted, never overwritten.
        ++drops_;
        msg.status = static_cast<uint64_t>(VeilStatus::Overflow);
        return;
    }
    cpu.writePhys(head_, &len, sizeof(len));
    cpu.writePhys(head_ + 4, msg.payload, len);
    head_ += 4 + len;
    ++records_;
    msg.status = static_cast<uint64_t>(VeilStatus::Ok);
}

void
LogService::opQuery(Vcpu &cpu, IdcbMessage &msg)
{
    SecureChannel *chan = monitor_.sealChannel();
    if (!chan) {
        msg.status = static_cast<uint64_t>(VeilStatus::Denied);
        return;
    }
    Bytes sealed(msg.payload, msg.payload + msg.payloadLen);
    auto plain = chan->open(sealed);
    if (!plain || plain->size() != 9) {
        // Forged / tampered / replayed request from the untrusted relay.
        msg.status = static_cast<uint64_t>(VeilStatus::VerifyFailed);
        return;
    }
    auto cmd = static_cast<LogQueryCmd>((*plain)[0]);
    uint64_t arg = loadLe<uint64_t>(plain->data() + 1);

    Bytes response;
    switch (cmd) {
      case LogQueryCmd::Fetch: {
          // [records:8][startOffset:8][payload...], bounded by arg and
          // the sealed-response budget: sealing adds exactly
          // kSealOverheadBytes of framing, so the plaintext response
          // (header + records) may use everything else.
          constexpr uint64_t kFetchHeaderBytes = 16;
          static_assert(kFetchHeaderBytes + kSealOverheadBytes <
                            kIdcbRetPayloadMax,
                        "LogService: no room for records in a reply");
          uint64_t budget = std::min<uint64_t>(
              {arg, kIdcbRetPayloadMax - kSealOverheadBytes -
                        kFetchHeaderBytes,
               end_ - base_});
          appendLe<uint64_t>(response, records_);
          appendLe<uint64_t>(response, readPos_ - base_);
          Gpa pos = readPos_;
          while (pos + 4 <= head_) {
              uint32_t len;
              cpu.readPhys(pos, &len, sizeof(len));
              if (response.size() + 4 + len > budget + kFetchHeaderBytes)
                  break;
              // Read the record straight into the response — no staging
              // buffer. Host-side only; simulated read cycles are charged
              // by readPhys exactly as before.
              appendLe<uint32_t>(response, len);
              size_t off = response.size();
              response.resize(off + len);
              cpu.readPhys(pos + 4, response.data() + off, len);
              pos += 4 + len;
          }
          readPos_ = pos;
          break;
      }
      case LogQueryCmd::Clear: {
          // Only the authenticated user may discard records, and only
          // after retrieving everything (readPos_ caught up to head_).
          if (head_ == readPos_) {
              head_ = base_;
              readPos_ = base_;
          }
          appendLe<uint64_t>(response, records_);
          break;
      }
      case LogQueryCmd::Stats:
        appendLe<uint64_t>(response, records_);
        appendLe<uint64_t>(response, head_ - base_);
        appendLe<uint64_t>(response, drops_);
        break;
    }

    Bytes sealed_resp = chan->seal(response);
    ensure(sealed_resp.size() <= kIdcbRetPayloadMax,
           "LogService: response too large");
    std::memcpy(msg.retPayload, sealed_resp.data(), sealed_resp.size());
    msg.retPayloadLen = static_cast<uint32_t>(sealed_resp.size());
    msg.status = static_cast<uint64_t>(VeilStatus::Ok);
}

void
LogService::opStats(Vcpu &cpu, IdcbMessage &msg)
{
    msg.ret[0] = records_;
    msg.ret[1] = head_ - base_;
    msg.ret[2] = drops_;
    msg.status = static_cast<uint64_t>(VeilStatus::Ok);
}

std::vector<std::string>
LogService::snapshotRecords() const
{
    std::vector<std::string> out;
    const GuestMemory &mem = machine_.memory();
    Gpa pos = base_;
    while (pos + 4 <= head_) {
        uint32_t len = mem.readObj<uint32_t>(pos);
        std::string rec(len, '\0');
        mem.read(pos + 4, rec.data(), len);
        out.push_back(std::move(rec));
        pos += 4 + len;
    }
    return out;
}

} // namespace veil::core
