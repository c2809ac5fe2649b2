/// \file store_serialize.hpp
/// \brief Versioned binary persistence of a GraphStore, following the
/// model-weight file conventions: magic + fixed-width fields, multi-byte
/// scalars in host byte order (the graph section from graph_io is
/// little-endian), so files are not portable to an opposite-endian host
/// — there they fail cleanly on the magic/checksum validation.
///
/// File layout (version 1, what SaveGraphStore writes):
///   uint64  magic "OTGSTOR1"
///   uint32  format version
///   uint32  reserved (zero)
///   payload:
///     int64   next_id          (id counter, so reloads never reuse ids)
///     uint64  entry count
///     entry*: int64 id
///             graph          (canonical binary encoding, graph_io)
///             invariants     (n, m int32; wl_hash uint64;
///                             n int32 labels; n int32 degrees)
///   uint64  FNV-1a checksum of the payload bytes
///
/// Version-2 files (written by older builds) still load. Their payload
/// ends in a uint8 flag; flag 1 is followed by a persisted VP-tree
/// section (int32 wl_prefix_bits, uint64 node count == entry count,
/// 20 bytes per node, uint64 digest). The index is no longer persisted,
/// so the loader checks the flag and that the section's length matches
/// its node count, then skips it.
///
/// Load validates magic, version and checksum, then *recomputes* every
/// graph's invariants and rejects the file on any mismatch with the
/// stored ones — so a successfully loaded corpus is guaranteed
/// bit-identical to a rebuild from the same graphs, and silent
/// corruption of the graphs cannot slip through.
#ifndef OTGED_SEARCH_STORE_SERIALIZE_HPP_
#define OTGED_SEARCH_STORE_SERIALIZE_HPP_

#include <cstdint>
#include <string>

#include "search/graph_store.hpp"
#include "search/index/graph_index.hpp"

namespace otged {

inline constexpr uint32_t kStoreFormatVersion = 1;

/// Serializes the store's current snapshot to `path`. Returns false on
/// I/O failure (with `error` describing it). `index` is ignored: the
/// parameter stays only because gedbench/src/main.cpp still passes it.
bool SaveGraphStore(const GraphStore& store, const std::string& path,
                    std::string* error = nullptr,
                    GraphIndex* index = nullptr);

/// Replaces `store`'s contents with the file's. On any failure (I/O, bad
/// magic/version, checksum mismatch, malformed entries, invariant
/// mismatch, malformed v2 index section) returns false and leaves the
/// store untouched. `index` is ignored, as for SaveGraphStore; an
/// engine's index catches up with the loaded store on its next range
/// query.
bool LoadGraphStore(GraphStore* store, const std::string& path,
                    std::string* error = nullptr,
                    GraphIndex* index = nullptr);

}  // namespace otged

#endif  // OTGED_SEARCH_STORE_SERIALIZE_HPP_
