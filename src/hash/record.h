// The record layout used across all hash-map experiments (Appendix B/C):
// "our records are 20 Bytes large and consist of a 64bit key, 64bit
// payload, and a 32bit meta-data field as commonly found in real
// applications (e.g., for delete flags, version numbers, etc.)".

#ifndef LI_HASH_RECORD_H_
#define LI_HASH_RECORD_H_

#include <cstdint>
#include <type_traits>

namespace li::hash {

struct Record {
  uint64_t key = 0;
  uint64_t payload = 0;
  uint32_t meta = 0;
  /// The 4 bytes the compiler would pad to 24 anyway, named so every
  /// copy carries a defined value: hash maps persist records verbatim.
  uint32_t pad = 0;
};
static_assert(sizeof(Record) == 24, "Record must stay compact");
static_assert(std::has_unique_object_representations_v<Record>,
              "no padding bytes: persisted records must be deterministic");

}  // namespace li::hash

#endif  // LI_HASH_RECORD_H_
