#include "serve/wire.hpp"

#include <cstring>

namespace dsprof::serve {

const char* status_code_name(StatusCode c) {
  switch (c) {
    case StatusCode::Ok: return "ok";
    case StatusCode::Timeout: return "timeout";
    case StatusCode::Disconnected: return "disconnected";
    case StatusCode::BadMagic: return "bad magic";
    case StatusCode::BadVersion: return "bad version";
    case StatusCode::FrameTooLarge: return "frame too large";
    case StatusCode::Malformed: return "malformed";
    case StatusCode::Overloaded: return "overloaded";
    case StatusCode::Refused: return "refused";
    case StatusCode::IoError: return "io error";
  }
  return "?";
}

const char* frame_type_name(FrameType t) {
  switch (t) {
    case FrameType::Hello: return "Hello";
    case FrameType::HelloAck: return "HelloAck";
    case FrameType::EventBatch: return "EventBatch";
    case FrameType::Alloc: return "Alloc";
    case FrameType::Flush: return "Flush";
    case FrameType::FlushAck: return "FlushAck";
    case FrameType::SnapshotReq: return "SnapshotReq";
    case FrameType::Snapshot: return "Snapshot";
    case FrameType::StatsReq: return "StatsReq";
    case FrameType::Stats: return "Stats";
    case FrameType::Close: return "Close";
    case FrameType::CloseAck: return "CloseAck";
    case FrameType::Error: return "Error";
  }
  return "?";
}

std::vector<u8> encode_frame(FrameType type, const std::vector<u8>& payload, u16 flags) {
  DSP_CHECK(payload.size() <= kMaxPayload, "frame payload exceeds cap");
  ByteWriter w;
  w.put_u32(kWireMagic);
  w.put_u8(kWireVersion);
  w.put_u8(static_cast<u8>(type));
  w.put_u16(flags);
  w.put_u32(static_cast<u32>(payload.size()));
  std::vector<u8> out = w.take();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Status FrameReader::feed(const u8* data, size_t n) {
  if (poisoned_) return Status::make(StatusCode::Malformed, "frame stream already poisoned");
  buf_.insert(buf_.end(), data, data + n);
  for (;;) {
    if (buf_.size() < kFrameHeaderSize) return {};
    u32 magic = 0, len = 0;
    u16 flags = 0;
    std::memcpy(&magic, buf_.data(), 4);
    const u8 version = buf_[4];
    const u8 type = buf_[5];
    std::memcpy(&flags, buf_.data() + 6, 2);
    std::memcpy(&len, buf_.data() + 8, 4);
    if (magic != kWireMagic) {
      poisoned_ = true;
      return Status::make(StatusCode::BadMagic, "frame magic mismatch");
    }
    if (version != kWireVersion) {
      poisoned_ = true;
      return Status::make(StatusCode::BadVersion,
                          "protocol version " + std::to_string(version) + " unsupported");
    }
    if (len > max_payload_) {
      poisoned_ = true;
      return Status::make(StatusCode::FrameTooLarge,
                          "payload length " + std::to_string(len) + " exceeds cap");
    }
    if (buf_.size() < kFrameHeaderSize + len) return {};
    Frame f;
    f.type = static_cast<FrameType>(type);
    f.flags = flags;
    f.payload.assign(buf_.begin() + kFrameHeaderSize, buf_.begin() + kFrameHeaderSize + len);
    buf_.erase(buf_.begin(), buf_.begin() + kFrameHeaderSize + len);
    ready_.push_back(std::move(f));
    ++frames_decoded_;
  }
}

bool FrameReader::next_frame(Frame& out) {
  if (ready_.empty()) return false;
  out = std::move(ready_.front());
  ready_.pop_front();
  return true;
}

// --- payload codecs ---------------------------------------------------------

namespace {

/// Run a ByteReader decode body, converting bytestream underruns (thrown as
/// dsprof::Error by DSP_CHECK) and any other exception (std::bad_alloc,
/// std::length_error) into a clean Malformed status. This is the subsystem
/// boundary described in status.hpp.
template <typename Fn>
Status guarded_decode(const char* what, Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return Status::make(StatusCode::Malformed, std::string(what) + ": " + e.what());
  }
  return {};
}

}  // namespace

std::vector<u8> encode_hello(const HelloPayload& h) {
  ByteWriter w;
  w.put_string(h.client_name);
  h.image.serialize(w);
  experiment::put_counter_specs(w, h.counters, /*with_set=*/true);
  w.put_u64(h.clock_interval);
  w.put_u64(h.clock_hz);
  w.put_u64(h.page_size);
  w.put_u64(h.ec_line_size);
  w.put_u64(h.total_cycles);
  w.put_u64(h.total_instructions);
  w.put_u32(static_cast<u32>(h.slices.size()));
  for (const auto& s : h.slices) {
    w.put_u64(s.live_cycles);
    w.put_u64(s.switches);
  }
  return w.take();
}

Status decode_hello(const std::vector<u8>& payload, HelloPayload& out) {
  return guarded_decode("hello", [&] {
    ByteReader r(payload);
    out.client_name = r.get_string();
    out.image = sym::Image::deserialize(r);
    // The events.bin header's decoder: the same count bound and event-id
    // check, so a hostile count cannot drive allocation.
    out.counters = experiment::get_counter_specs(r, /*with_set=*/true);
    out.clock_interval = r.get_u64();
    out.clock_hz = r.get_u64();
    out.page_size = r.get_u64();
    out.ec_line_size = r.get_u64();
    out.total_cycles = r.get_u64();
    out.total_instructions = r.get_u64();
    const u32 ns = r.get_u32();
    DSP_CHECK(ns <= machine::kNumHwEvents,
              "implausible slice-table set count " + std::to_string(ns) + " in hello");
    out.slices.clear();
    out.slices.reserve(ns);
    for (u32 i = 0; i < ns; ++i) {
      experiment::SliceInfo s;
      s.live_cycles = r.get_u64();
      s.switches = r.get_u64();
      out.slices.push_back(s);
    }
    DSP_CHECK(r.at_end(), "trailing bytes after hello payload");
  });
}

std::vector<u8> encode_hello_ack(u64 session_id) {
  ByteWriter w;
  w.put_u64(session_id);
  return w.take();
}

Status decode_hello_ack(const std::vector<u8>& payload, u64& session_id) {
  return guarded_decode("hello_ack", [&] {
    ByteReader r(payload);
    session_id = r.get_u64();
    DSP_CHECK(r.at_end(), "trailing bytes after hello_ack payload");
  });
}

// v4 frames always carry the set column (zero-filled when the client did
// not multiplex): the wire owes no byte-compat to v3, and an unconditional
// column keeps the codec single-layout.
std::vector<u8> encode_event_batch(const experiment::EventStore& events) {
  ByteWriter w;
  events.serialize_aligned(w, /*with_set=*/true);
  return w.take();
}

std::vector<u8> encode_event_batch(const experiment::EventStore& events, size_t begin,
                                   size_t end) {
  ByteWriter w;
  events.serialize_range_aligned(w, begin, end, /*with_set=*/true);
  return w.take();
}

Status decode_event_batch(std::vector<u8>&& payload, experiment::EventStore& out) {
  return guarded_decode("event batch", [&] {
    // Zero-copy: move the payload into shared storage and let the store's
    // column views point straight at it. The aligned layout guarantees the
    // u64/u32 columns sit on 8-byte offsets, and a heap vector's data() is
    // at least 8-aligned, so the views are properly aligned. Validation
    // (column-length agreement, every callstack handle and event id) runs
    // inside deserialize_aligned before the views are adopted.
    const auto keep = std::make_shared<const std::vector<u8>>(std::move(payload));
    ByteReader r(*keep);
    out = experiment::EventStore::deserialize_aligned(r, keep, /*with_set=*/true);
    DSP_CHECK(r.at_end(), "trailing bytes after event batch payload");
  });
}

std::vector<u8> encode_allocs(const std::vector<machine::AllocRecord>& allocs) {
  ByteWriter w;
  w.put_u64(allocs.size());
  for (const auto& a : allocs) {
    w.put_u64(a.addr);
    w.put_u64(a.size);
    w.put_u64(a.site_pc);
  }
  return w.take();
}

Status decode_allocs(const std::vector<u8>& payload, std::vector<machine::AllocRecord>& out) {
  return guarded_decode("alloc log", [&] {
    ByteReader r(payload);
    const u64 n = r.get_u64();
    DSP_CHECK(n <= r.remaining() / 24, "alloc count exceeds payload");
    out.clear();
    out.reserve(n);
    for (u64 i = 0; i < n; ++i) {
      machine::AllocRecord a;
      a.addr = r.get_u64();
      a.size = r.get_u64();
      a.site_pc = r.get_u64();
      out.push_back(a);
    }
    DSP_CHECK(r.at_end(), "trailing bytes after alloc payload");
  });
}

namespace {

void put_accounting(ByteWriter& w, const Accounting& a) {
  w.put_u64(a.events_in);
  w.put_u64(a.events_reduced);
  w.put_u64(a.events_dropped);
}

void get_accounting(ByteReader& r, Accounting& a) {
  a.events_in = r.get_u64();
  a.events_reduced = r.get_u64();
  a.events_dropped = r.get_u64();
}

}  // namespace

std::vector<u8> encode_flush_ack(const Accounting& a) {
  ByteWriter w;
  put_accounting(w, a);
  return w.take();
}

Status decode_flush_ack(const std::vector<u8>& payload, Accounting& out) {
  return guarded_decode("flush_ack", [&] {
    ByteReader r(payload);
    get_accounting(r, out);
    DSP_CHECK(r.at_end(), "trailing bytes after flush_ack payload");
  });
}

std::vector<u8> encode_snapshot(const Accounting& a, const std::string& json_report) {
  ByteWriter w;
  put_accounting(w, a);
  w.put_string(json_report);
  return w.take();
}

Status decode_snapshot(const std::vector<u8>& payload, Accounting& a, std::string& json_report) {
  return guarded_decode("snapshot", [&] {
    ByteReader r(payload);
    get_accounting(r, a);
    json_report = r.get_string();
    DSP_CHECK(r.at_end(), "trailing bytes after snapshot payload");
  });
}

std::vector<u8> encode_stats(const std::string& json) {
  ByteWriter w;
  w.put_string(json);
  return w.take();
}

Status decode_stats(const std::vector<u8>& payload, std::string& json) {
  return guarded_decode("stats", [&] {
    ByteReader r(payload);
    json = r.get_string();
    DSP_CHECK(r.at_end(), "trailing bytes after stats payload");
  });
}

std::vector<u8> encode_error(const Status& s) {
  ByteWriter w;
  w.put_u8(static_cast<u8>(s.code));
  w.put_string(s.message);
  return w.take();
}

Status decode_error(const std::vector<u8>& payload, Status& out) {
  return guarded_decode("error frame", [&] {
    ByteReader r(payload);
    out.code = static_cast<StatusCode>(r.get_u8());
    out.message = r.get_string();
    DSP_CHECK(r.at_end(), "trailing bytes after error payload");
  });
}

}  // namespace dsprof::serve
