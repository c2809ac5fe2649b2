#include "search/store_serialize.hpp"

#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/graph_io.hpp"

namespace otged {

namespace {

constexpr uint64_t kMagic = 0x31524F545347544Full;  // "OTGSTOR1" LE

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

template <typename T>
void AppendPod(std::string* buf, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  buf->append(bytes, sizeof(T));
}

template <typename T>
bool ReadPod(std::string_view buf, size_t* offset, T* out) {
  if (*offset + sizeof(T) > buf.size()) return false;
  std::memcpy(out, buf.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return true;
}

void AppendInvariants(std::string* buf, const GraphInvariants& inv) {
  AppendPod<int32_t>(buf, inv.num_nodes);
  AppendPod<int32_t>(buf, inv.num_edges);
  AppendPod<uint64_t>(buf, inv.wl_hash);
  for (Label l : inv.sorted_labels) AppendPod<int32_t>(buf, l);
  for (int d : inv.sorted_degrees) AppendPod<int32_t>(buf, d);
}

bool ReadInvariants(std::string_view buf, size_t* offset,
                    GraphInvariants* inv) {
  int32_t n = 0, m = 0;
  if (!ReadPod(buf, offset, &n) || !ReadPod(buf, offset, &m) || n < 0)
    return false;
  inv->num_nodes = n;
  inv->num_edges = m;
  if (!ReadPod(buf, offset, &inv->wl_hash)) return false;
  inv->sorted_labels.resize(n);
  for (int32_t i = 0; i < n; ++i) {
    int32_t l = 0;
    if (!ReadPod(buf, offset, &l)) return false;
    inv->sorted_labels[i] = l;
  }
  inv->sorted_degrees.resize(n);
  for (int32_t i = 0; i < n; ++i) {
    int32_t d = 0;
    if (!ReadPod(buf, offset, &d)) return false;
    inv->sorted_degrees[i] = d;
  }
  return true;
}

}  // namespace

bool SaveGraphStore(const GraphStore& store, const std::string& path,
                    std::string* error, GraphIndex* /*index*/) {
  // Pin one snapshot so the file is internally consistent even if the
  // store mutates mid-save; NextId is read after and only moves forward,
  // so it is always >= every id in the snapshot.
  auto snap = store.Snapshot();
  const int64_t next_id = store.NextId();

  std::string payload;
  AppendPod<int64_t>(&payload, next_id);
  AppendPod<uint64_t>(&payload, static_cast<uint64_t>(snap->Size()));
  for (int slot = 0; slot < snap->Size(); ++slot) {
    AppendPod<int64_t>(&payload, snap->id(slot));
    AppendGraphBinary(&payload, snap->graph(slot));
    AppendInvariants(&payload, snap->invariants(slot));
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return Fail(error, "cannot open " + path + " for writing");
  std::string header;
  AppendPod<uint64_t>(&header, kMagic);
  AppendPod<uint32_t>(&header, kStoreFormatVersion);
  AppendPod<uint32_t>(&header, 0u);  // reserved
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  std::string checksum;
  AppendPod<uint64_t>(&checksum, Fnv1a64(payload));
  out.write(checksum.data(), static_cast<std::streamsize>(checksum.size()));
  if (!out) return Fail(error, "write failure on " + path);
  return true;
}

bool LoadGraphStore(GraphStore* store, const std::string& path,
                    std::string* error, GraphIndex* /*index*/) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Fail(error, "cannot open " + path);
  std::string file((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) return Fail(error, "read failure on " + path);

  size_t offset = 0;
  uint64_t magic = 0;
  uint32_t version = 0, reserved = 0;
  if (!ReadPod<uint64_t>(file, &offset, &magic) || magic != kMagic)
    return Fail(error, "not a GraphStore file (bad magic)");
  if (!ReadPod<uint32_t>(file, &offset, &version) ||
      (version != 1 && version != 2))
    return Fail(error, "unsupported format version " +
                           std::to_string(version));
  if (!ReadPod<uint32_t>(file, &offset, &reserved))
    return Fail(error, "truncated header");

  if (file.size() < offset + sizeof(uint64_t))
    return Fail(error, "truncated file (no checksum)");
  const size_t payload_end = file.size() - sizeof(uint64_t);
  uint64_t stored_checksum = 0;
  {
    size_t ck_offset = payload_end;
    ReadPod<uint64_t>(file, &ck_offset, &stored_checksum);
  }
  const std::string_view payload(file.data() + offset, payload_end - offset);
  if (Fnv1a64(payload) != stored_checksum)
    return Fail(error, "checksum mismatch (corrupt file)");

  size_t p = 0;  // offsets below are relative to the payload
  int64_t next_id = 0;
  uint64_t count = 0;
  if (!ReadPod(payload, &p, &next_id) || !ReadPod(payload, &p, &count) ||
      next_id < 0 || next_id > std::numeric_limits<int>::max())
    return Fail(error, "malformed payload header");
  // Don't trust the count for allocation: each entry occupies at least
  // an id (8) plus the graph and invariant headers (8 + 16 bytes).
  if (count > (payload.size() - p) / 32)
    return Fail(error, "entry count exceeds payload size");

  std::vector<std::pair<int, Graph>> entries;
  entries.reserve(count);
  int64_t prev_id = -1;
  for (uint64_t i = 0; i < count; ++i) {
    int64_t id = -1;
    if (!ReadPod(payload, &p, &id) || id <= prev_id || id >= next_id)
      return Fail(error, "malformed or non-increasing graph id");
    prev_id = id;
    std::string decode_error;
    std::optional<Graph> g = DecodeGraphBinary(payload, &p, &decode_error);
    if (!g.has_value())
      return Fail(error, "entry " + std::to_string(i) + ": " + decode_error);
    GraphInvariants stored_inv;
    if (!ReadInvariants(payload, &p, &stored_inv))
      return Fail(error, "entry " + std::to_string(i) +
                             ": truncated invariants");
    // A reload must be bit-identical to a rebuild: recompute and compare.
    if (!(ComputeInvariants(*g) == stored_inv))
      return Fail(error, "entry " + std::to_string(i) +
                             ": invariants do not match the graph");
    entries.emplace_back(static_cast<int>(id), std::move(*g));
  }

  // A v2 file may end in a VP-tree index section from an older writer.
  // The index is no longer persisted, so the section is only checked for
  // shape (flag byte, node count, exact byte length) and skipped.
  if (version == 2) {
    uint8_t flag = 0;
    if (!ReadPod(payload, &p, &flag) || flag > 1)
      return Fail(error, "malformed index flag");
    if (flag == 1) {
      int32_t bits = 0;
      uint64_t node_count = 0;
      if (!ReadPod(payload, &p, &bits) || !ReadPod(payload, &p, &node_count))
        return Fail(error, "malformed index header");
      if (node_count != count)
        return Fail(error, "index node count != entry count");
      // node*: int64 id + 3 x int32; then a uint64 digest.
      constexpr size_t kNodeBytes = sizeof(int64_t) + 3 * sizeof(int32_t);
      if (payload.size() - p != node_count * kNodeBytes + sizeof(uint64_t))
        return Fail(error, "index section length does not match its "
                           "node count");
      p = payload.size();
    }
  }
  if (p != payload.size())
    return Fail(error, "trailing bytes after last entry");

  if (!store->Restore(std::move(entries), static_cast<int>(next_id)))
    return Fail(error, "store rejected the id sequence");
  return true;
}

}  // namespace otged
